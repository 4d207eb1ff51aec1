//===- trace/Event.h - Trace event model ------------------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recorded event vocabulary.  A PerfPlay trace stores, per thread,
/// the sequence of synchronization operations (lock acquire/release),
/// shared-memory accesses inside critical sections, and the computation
/// between them collapsed into Compute(cost) events — the paper's
/// "selective recording" (Section 5.1): everything that is not needed to
/// re-evaluate ULCP timing is recorded only as its observed duration.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRACE_EVENT_H
#define PERFPLAY_TRACE_EVENT_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace perfplay {

using ThreadId = uint32_t;
using LockId = uint32_t;
using AddrId = uint64_t;
using CodeSiteId = uint32_t;
using LocksetId = uint32_t;
using TimeNs = uint64_t;

/// Sentinel for "no value" across the 32-bit id types.
inline constexpr uint32_t InvalidId = std::numeric_limits<uint32_t>::max();

/// Kinds of recorded events.
enum class EventKind : uint8_t {
  /// Thread became runnable.  Always the first event of a thread.
  ThreadStart,
  /// Thread finished.  Always the last event of a thread.
  ThreadEnd,
  /// Lock acquisition.  Carries the lock, the code site of the critical
  /// section it opens and, in transformed traces, a lockset id.
  LockAcquire,
  /// Lock release, closing the innermost critical section on this lock.
  LockRelease,
  /// Shared-memory read inside a critical section.  Carries the address
  /// and the value observed in the recorded run (used by the reversed
  /// replay that separates benign ULCPs from true contention).
  Read,
  /// Shared-memory write inside a critical section.  Carries the
  /// address, the operand and the write operator.
  Write,
  /// Computation of the given duration with no shared interaction.
  Compute,
  /// Reader-side rwlock acquisition (pthread_rwlock_rdlock).  Opens a
  /// critical section in AcquireMode::Shared: multiple readers hold
  /// the lock concurrently, and reader-reader pairs are ULCP-free by
  /// construction (the new static rule of ROADMAP item 3).
  RwAcquireRead,
  /// Writer-side rwlock acquisition (pthread_rwlock_wrlock).  Opens an
  /// exclusive critical section — pairs like a plain LockAcquire.
  RwAcquireWrite,
  /// Trylock attempt (pthread_mutex_trylock / rwlock_try*lock).
  /// Carries the lock, site, acquire mode and a success flag: a
  /// successful try opens a critical section exactly like the
  /// corresponding blocking acquire; a failed try opens nothing but
  /// still witnesses real contention on the lock (the failure edge
  /// detectors count without creating a section).
  TryAcquire,
  /// Condition-variable wait (pthread_cond_wait).  Carries the condvar
  /// (registered in the lock table) and the code site.  The protecting
  /// mutex's release / re-acquire around the sleep stays explicit in
  /// the trace; this event only marks the ordering edge.
  CondWait,
  /// Condition-variable signal (pthread_cond_signal).
  CondSignal,
  /// Condition-variable broadcast (pthread_cond_broadcast).
  CondBroadcast,
};

/// Number of EventKind enumerators (histogram sizing).
inline constexpr size_t NumEventKinds =
    static_cast<size_t>(EventKind::CondBroadcast) + 1;

/// Acquisition mode of a section-opening event.
enum class AcquireMode : uint8_t {
  /// Mutual exclusion: one holder at a time (mutex, rwlock writer).
  Exclusive,
  /// Shared: concurrent holders allowed (rwlock reader).
  Shared,
};

/// Returns "exclusive" or "shared".
const char *acquireModeName(AcquireMode Mode);

/// Write operators for the abstract memory machine.
///
/// The reversed replay (Section 3.1) distinguishes benign ULCPs (e.g.
/// redundant writes or disjoint bit manipulation) from true conflicts by
/// re-executing two critical sections in swapped order and comparing the
/// resulting memory.  Modeling writes as operators rather than opaque
/// stores makes commutativity observable.
enum class WriteOpKind : uint8_t {
  /// *Addr = Value.
  Store,
  /// *Addr += Value.
  Add,
  /// *Addr |= Value.
  Or,
  /// *Addr &= Value.
  And,
  /// *Addr ^= Value.
  Xor,
};

/// Returns a short mnemonic ("store", "add", ...) for \p Op.
const char *writeOpName(WriteOpKind Op);

/// True for the kinds whose payload is {Site, Lock, Lockset}: every
/// mutex, rwlock, trylock and condition-variable event.
constexpr bool carriesLockPayload(EventKind Kind) {
  switch (Kind) {
  case EventKind::LockAcquire:
  case EventKind::LockRelease:
  case EventKind::RwAcquireRead:
  case EventKind::RwAcquireWrite:
  case EventKind::TryAcquire:
  case EventKind::CondWait:
  case EventKind::CondSignal:
  case EventKind::CondBroadcast:
    return true;
  default:
    return false;
  }
}

/// True for the kinds whose payload is {Addr, Value}: Read and Write.
constexpr bool carriesAccessPayload(EventKind Kind) {
  return Kind == EventKind::Read || Kind == EventKind::Write;
}

/// One recorded event: a 4-byte header, then a payload chosen by the
/// kind:
/// - mutex, rwlock, trylock and condvar kinds: {Site, Lock, Lockset};
/// - Read and Write: {Addr, Value};
/// - Compute: Cost;
/// - ThreadStart and ThreadEnd: none.
///
/// The payload lives in three fixed words (no union, so no member is
/// ever read other than as written) that only the named constructors
/// and setLockset() write; every reader goes through the accessor of
/// the field it wants, which asserts in Debug builds that the kind
/// carries that field.  Two copies of every event are alive in an
/// analysis session (the loaded trace and its ULCP-free transform), so
/// the event stays 24 bytes.
struct Event {
  EventKind Kind = EventKind::Compute;
  /// Write operator (Write only).
  WriteOpKind Op = WriteOpKind::Store;
  /// Acquisition mode (section-opening kinds).  RwAcquireRead is
  /// always Shared, LockAcquire / RwAcquireWrite always Exclusive;
  /// TryAcquire carries whichever mode was attempted.
  AcquireMode Mode = AcquireMode::Exclusive;
  /// Whether a TryAcquire obtained the lock (TryAcquire only).
  bool TrySucceeded = false;

  /// A zero-cost Compute event.
  Event() = default;

  /// Lock operated on (acquire/release kinds), or the condvar id for
  /// CondWait / CondSignal / CondBroadcast (condvars live in the lock
  /// table).
  LockId lock() const {
    assert(carriesLockPayload(Kind) && "lock() of a non-lock event");
    return Word0;
  }
  /// Code site opening the critical section (section-opening kinds and
  /// CondWait); InvalidId on the other lock kinds.
  CodeSiteId site() const {
    assert(carriesLockPayload(Kind) && "site() of a non-lock event");
    return static_cast<CodeSiteId>(Word1);
  }
  /// Lockset id in transformed traces (section-opening kinds only);
  /// InvalidId in recorded traces, meaning "acquire exactly {lock()}".
  LocksetId lockset() const {
    assert(carriesLockPayload(Kind) && "lockset() of a non-lock event");
    return static_cast<LocksetId>(Word2);
  }
  /// Accessed address (Read / Write).
  AddrId addr() const {
    assert(carriesAccessPayload(Kind) && "addr() of a non-access event");
    return Word1;
  }
  /// Write operand, or value observed by a Read in the recorded run.
  uint64_t value() const {
    assert(carriesAccessPayload(Kind) && "value() of a non-access event");
    return Word2;
  }
  /// Duration in virtual nanoseconds (Compute only).
  TimeNs cost() const {
    assert(Kind == EventKind::Compute && "cost() of a non-compute event");
    return Word1;
  }

  /// Rebinds a lock event to lockset \p Lockset (RULE 3's rewrite of
  /// a section-opening event in the ULCP-free trace).
  void setLockset(LocksetId Lockset) {
    assert(carriesLockPayload(Kind) && "lockset of a non-lock event");
    Word2 = Lockset;
  }

  /// Header and payload equality.
  bool operator==(const Event &RHS) const {
    return Kind == RHS.Kind && Op == RHS.Op && Mode == RHS.Mode &&
           TrySucceeded == RHS.TrySucceeded && Word0 == RHS.Word0 &&
           Word1 == RHS.Word1 && Word2 == RHS.Word2;
  }

  /// Convenience constructors for each kind; the only writers of the
  /// payload besides setLockset().
  static Event threadStart() { return Event(EventKind::ThreadStart); }
  static Event threadEnd() { return Event(EventKind::ThreadEnd); }
  static Event lockAcquire(LockId Lock, CodeSiteId Site,
                           LocksetId Lockset = InvalidId) {
    return Event(EventKind::LockAcquire, Lock, Site, Lockset);
  }
  static Event lockRelease(LockId Lock) {
    return Event(EventKind::LockRelease, Lock, InvalidId, InvalidId);
  }
  static Event read(AddrId Addr, uint64_t Value = 0) {
    return Event(EventKind::Read, 0, Addr, Value);
  }
  static Event write(AddrId Addr, uint64_t Value,
                     WriteOpKind Op = WriteOpKind::Store) {
    Event E(EventKind::Write, 0, Addr, Value);
    E.Op = Op;
    return E;
  }
  static Event compute(TimeNs Cost) {
    return Event(EventKind::Compute, 0, Cost, 0);
  }
  static Event rwAcquireRead(LockId Lock, CodeSiteId Site,
                             LocksetId Lockset = InvalidId) {
    Event E(EventKind::RwAcquireRead, Lock, Site, Lockset);
    E.Mode = AcquireMode::Shared;
    return E;
  }
  static Event rwAcquireWrite(LockId Lock, CodeSiteId Site,
                              LocksetId Lockset = InvalidId) {
    return Event(EventKind::RwAcquireWrite, Lock, Site, Lockset);
  }
  static Event tryAcquire(LockId Lock, CodeSiteId Site, bool Succeeded,
                          AcquireMode Mode = AcquireMode::Exclusive,
                          LocksetId Lockset = InvalidId) {
    Event E(EventKind::TryAcquire, Lock, Site, Lockset);
    E.Mode = Mode;
    E.TrySucceeded = Succeeded;
    return E;
  }
  static Event condWait(LockId Cond, CodeSiteId Site) {
    return Event(EventKind::CondWait, Cond, Site, InvalidId);
  }
  static Event condSignal(LockId Cond) {
    return Event(EventKind::CondSignal, Cond, InvalidId, InvalidId);
  }
  static Event condBroadcast(LockId Cond) {
    return Event(EventKind::CondBroadcast, Cond, InvalidId, InvalidId);
  }

private:
  explicit Event(EventKind K, uint32_t W0 = 0, uint64_t W1 = 0,
                 uint64_t W2 = 0)
      : Kind(K), Word0(W0), Word1(W1), Word2(W2) {}

  /// Lock.
  uint32_t Word0 = 0;
  /// Site, Addr or Cost.
  uint64_t Word1 = 0;
  /// Lockset or Value.
  uint64_t Word2 = 0;
};

static_assert(sizeof(Event) == 24, "Event must stay 24 bytes");

/// True iff \p E opens a critical section: a blocking acquire (mutex
/// or either rwlock side) or a successful trylock.  Every consumer
/// that pairs acquires with releases — CS indexing, validation,
/// replay, per-thread acquire ordinals — must use this predicate so
/// global CS ids stay consistent across the whole stack.
inline bool isSectionOpen(const Event &E) {
  switch (E.Kind) {
  case EventKind::LockAcquire:
  case EventKind::RwAcquireRead:
  case EventKind::RwAcquireWrite:
    return true;
  case EventKind::TryAcquire:
    return E.TrySucceeded;
  default:
    return false;
  }
}

/// Acquisition mode of a section-opening event (Exclusive for plain
/// mutex acquires).
inline AcquireMode acquireModeOf(const Event &E) {
  return E.Kind == EventKind::RwAcquireRead ? AcquireMode::Shared : E.Mode;
}

/// Returns a short mnemonic for \p Kind ("acq", "rel", "rd", "wr", ...).
const char *eventKindName(EventKind Kind);

} // namespace perfplay

#endif // PERFPLAY_TRACE_EVENT_H
