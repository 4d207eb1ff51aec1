//===- detect/CriticalSection.h - Critical-section extraction ---*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of critical sections from a trace, together with their
/// shadow-memory state: the sets of shared reads (C.Srd) and shared
/// writes (C.Swr) the paper's Algorithm 1 intersects, and the memory
/// program the reversed replay of Section 3.1 runs.  Nested critical
/// sections are supported; an access made while several locks are held
/// belongs to every enclosing critical section.
///
/// Everything classification reads lives in one flat SectionTable:
/// a CriticalSection record per section plus five index-owned pools,
/// which each record addresses by offset+count runs.
///
///   address pool   Reads, then Writes: sorted, de-duplicated
///   condvar pool   CondWaits, then CondSignals: sorted, de-duplicated
///   slot pool      the sorted union of Reads and Writes, each address
///                  with its initial value (two parallel arrays)
///   program pool   every Read/Write between acquire and release, in
///                  program order, as {slot, read/write, op, operand}
///
/// A program names its section's slots by position, so the reversed
/// replay of a pair merges two short slot lists and runs two programs
/// without touching the trace or any hash table.  A slot's initial
/// value is the whole trace's: the recorded value of the first access
/// to its address in a thread-major scan when that access is a read,
/// otherwise 0 (the value before a first write is unobservable inside
/// critical sections).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_CRITICALSECTION_H
#define PERFPLAY_DETECT_CRITICALSECTION_H

#include "support/Span.h"
#include "trace/Trace.h"

#include <vector>

namespace perfplay {

/// One run of a SectionTable pool: elements [Begin, Begin + Size).
struct PoolRun {
  uint32_t Begin = 0;
  uint32_t Size = 0;
};

/// One shared-memory access of a section's program: a read of slot
/// Slot, or Op with Operand applied to it.
struct MemOp {
  uint64_t Operand = 0;
  /// Position in the section's slot list.
  uint32_t Slot = 0;
  bool IsWrite = false;
  WriteOpKind Op = WriteOpKind::Store;
};

/// One critical section: its metadata, and its runs of the owning
/// SectionTable's pools.
struct CriticalSection {
  /// Thread and per-thread index (numbered by opening acquire).
  CsRef Ref;
  /// Dense id across the whole trace (Trace::globalCsId).
  uint32_t GlobalId = InvalidId;
  LockId Lock = InvalidId;
  CodeSiteId Site = InvalidId;
  /// Acquisition mode of the opening event: Shared for rwlock readers
  /// (two Shared sections on the same lock never exclude each other,
  /// so reader-reader pairs are ULCP-free by construction), Exclusive
  /// for everything else.
  AcquireMode Mode = AcquireMode::Exclusive;
  /// Lock-nesting depth of the acquire (0 = outermost).
  unsigned Depth = 0;
  /// Indices of the acquire / matching release in the thread stream.
  size_t AcquireIdx = 0;
  size_t ReleaseIdx = 0;
  /// Total Compute cost between acquire and release.
  TimeNs InnerCost = 0;
  /// Shared addresses read / written between the acquire and its
  /// matching release (nested sections included), in the address pool.
  PoolRun Reads, Writes;
  /// Condvar ids this section waited on / signaled (broadcast counts
  /// as signal), in the condvar pool.  A wait in one section and the
  /// matching signal in another orders the two sections causally —
  /// such pairs are true contention, never ULCPs, and skip replay.
  PoolRun CondWaits, CondSignals;
  /// The union of Reads and Writes with initial values, in the slot
  /// pool.
  PoolRun Slots;
  /// Memory accesses in program order, in the program pool.
  PoolRun Program;
};

/// A section's body in program order, as an extraction accumulates it
/// before SectionTable::pack canonicalizes it into the pools.
struct SectionBody {
  struct Access {
    AddrId Addr;
    uint64_t Value;
    WriteOpKind Op;
    bool IsWrite;
  };
  std::vector<Access> Accesses;
  std::vector<LockId> CondWaits, CondSignals;

  void clear() {
    Accesses.clear();
    CondWaits.clear();
    CondSignals.clear();
  }

  /// Adds \p E when it is a memory or condvar event; ignores the rest.
  void add(const Event &E);
};

/// Critical sections with their packed read/write sets, condvar sets,
/// slots and programs: everything Algorithm 1 and the reversed replay
/// read (see the file comment for the pools).
class SectionTable {
public:
  const std::vector<CriticalSection> &all() const { return Sections; }
  const CriticalSection &byGlobalId(uint32_t Id) const {
    return Sections[Id];
  }
  size_t size() const { return Sections.size(); }

  Span<AddrId> reads(const CriticalSection &Cs) const {
    return run(Addrs, Cs.Reads);
  }
  Span<AddrId> writes(const CriticalSection &Cs) const {
    return run(Addrs, Cs.Writes);
  }
  Span<LockId> condWaits(const CriticalSection &Cs) const {
    return run(Conds, Cs.CondWaits);
  }
  Span<LockId> condSignals(const CriticalSection &Cs) const {
    return run(Conds, Cs.CondSignals);
  }
  /// Sorted slot addresses; slotValues is parallel to it.
  Span<AddrId> slots(const CriticalSection &Cs) const {
    return run(SlotAddrs, Cs.Slots);
  }
  /// Initial value of each slot, indexed like slots(Cs).
  Span<uint64_t> slotValues(const CriticalSection &Cs) const {
    return run(SlotInit, Cs.Slots);
  }
  Span<MemOp> program(const CriticalSection &Cs) const {
    return run(Ops, Cs.Program);
  }

  /// Appends \p Cs (its runs still empty); returns its position.
  uint32_t add(const CriticalSection &Cs);

  /// Packs \p Body into the pools as the runs of the section at
  /// position \p Pos.  Slot values start at 0 until seedSlots.
  void pack(uint32_t Pos, const SectionBody &Body);

  /// Sets every slot's initial value to \p ValueOf(address).
  template <typename ValueFn> void seedSlots(ValueFn ValueOf) {
    for (size_t I = 0; I != SlotAddrs.size(); ++I)
      SlotInit[I] = ValueOf(SlotAddrs[I]);
  }

protected:
  std::vector<CriticalSection> Sections;

private:
  template <typename T>
  static Span<T> run(const std::vector<T> &Pool, PoolRun R) {
    return Span<T>(Pool.data() + R.Begin, R.Size);
  }

  std::vector<AddrId> Addrs;
  std::vector<LockId> Conds;
  std::vector<AddrId> SlotAddrs;
  std::vector<uint64_t> SlotInit;
  std::vector<MemOp> Ops;
};

/// All critical sections of a trace, indexed by global id, plus the
/// per-lock order used when pairing them.
class CsIndex : public SectionTable {
public:
  /// Extracts every critical section of \p Tr in one thread-major pass,
  /// folding the slots' initial values in the same scan.  The per-lock
  /// order is taken from Tr.LockSchedule when present (the recorded
  /// grant order); otherwise it falls back to global-id order, which
  /// is only meaningful for single-threaded or hand-built traces.
  static CsIndex build(const Trace &Tr);

  /// Global CS ids protected by \p Lock, in pairing order.
  const std::vector<uint32_t> &sectionsOfLock(LockId Lock) const {
    return PerLock[Lock];
  }

  /// Every lock's pairing order, indexed by lock id.
  const std::vector<std::vector<uint32_t>> &lockOrders() const {
    return PerLock;
  }

  unsigned numLocks() const {
    return static_cast<unsigned>(PerLock.size());
  }

  /// Failed trylock attempts per lock: contention witnessed on the
  /// lock without a critical section ever opening.  Sized numLocks().
  const std::vector<uint64_t> &tryFailPerLock() const {
    return TryFailPerLock;
  }

  /// Total failed trylock attempts across all locks.
  uint64_t tryFailEdges() const {
    uint64_t N = 0;
    for (uint64_t C : TryFailPerLock)
      N += C;
    return N;
  }

private:
  std::vector<std::vector<uint32_t>> PerLock;
  std::vector<uint64_t> TryFailPerLock;
};

} // namespace perfplay

#endif // PERFPLAY_DETECT_CRITICALSECTION_H
