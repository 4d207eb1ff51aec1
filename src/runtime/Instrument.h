//===- runtime/Instrument.h - Instrumented sync primitives ------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process recorder that stands in for the paper's Pin-based
/// instrumentation: drop-in synchronization primitives (a mutex, a
/// reader/writer lock, a condition variable, an RAII section guard
/// carrying the code site) and a shared-variable wrapper that logs
/// reads/writes with observed values.  Each operation becomes a
/// RawRecord pushed into the lock-free ring of a record::RecordRuntime
/// — the same rings, flusher and translation the LD_PRELOAD recorder
/// uses — so the computation between events collapses into
/// Compute(cost) and lock waits stay out of it: the paper's selective
/// recording (Section 5.1).
///
/// The grant order of every lock is the schedule ELSC enforces on
/// replay.  Each recording primitive appends the acquiring thread to
/// its own grant list while it holds the lock, so recording takes no
/// global lock; Recorder::finish() rebuilds the LockSchedule from those
/// lists.
///
/// \code
///   Recorder R;
///   RecordingMutex Mu(R, "dbmp->mutex");
///   SharedVar<uint64_t> Ref(R, "dbmfp->ref");
///   // In each thread (Tid from R.registerThread()):
///   {
///     RecordedSection Guard(Mu, Tid,
///                           PERFPLAY_CODE_SITE(R, 120, 131));
///     if (Ref.load(Tid) == 1) { ... }
///   }
///   Expected<Trace> Tr = R.finish();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_RUNTIME_INSTRUMENT_H
#define PERFPLAY_RUNTIME_INSTRUMENT_H

#include "record/Preload.h"
#include "support/Expected.h"
#include "support/ThreadAnnotations.h"
#include "trace/Trace.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace perfplay {

/// Collects a Trace from a live multi-threaded execution.
///
/// Lifecycle: register locks/sites up front, register each thread from
/// the thread itself, record through the primitives below, then call
/// finish() after all recorded threads have joined.
class Recorder {
public:
  /// The acquiring thread of each critical section on one lock, in
  /// grant order.
  using GrantList = std::vector<ThreadId>;

  Recorder();

  /// Registers a lock or condvar (they share the lock table, and
  /// CondWait/CondSignal events reference condvars by LockId).
  LockId registerLock(std::string Name, bool IsSpin = false) {
    return RT.registerLock(std::move(Name), IsSpin);
  }

  /// Registers (or re-finds) a code site; thread-safe, deduplicated.
  CodeSiteId registerSite(std::string File, std::string Function,
                          uint32_t BeginLine, uint32_t EndLine) {
    return RT.registerSite(std::move(File), std::move(Function), BeginLine,
                           EndLine);
  }

  /// Registers the calling thread and returns its id.  Its computation
  /// is charged from this call on.
  ThreadId registerThread() { return RT.registerThread(); }

  /// The grant list of \p Lock.  Stable for the recorder's lifetime;
  /// only the primitive that registered \p Lock appends to it, while
  /// holding that lock.
  GrantList &grants(LockId Lock) EXCLUDES(Mu);

  /// Pushes one lock or condvar operation of the calling thread that
  /// began at \p T0 and completes now.
  void push(record::RecOp Op, LockId Lock, CodeSiteId Site, uint64_t T0,
            uint8_t Flags = 0, LockId Lock2 = InvalidId);

  /// Pushes one shared access of the calling thread.
  void access(record::RecOp Op, AddrId Addr, uint64_t Value,
              WriteOpKind Kind = WriteOpKind::Store) {
    RT.pushRecord(record::accessRecord(Op, Addr, Value,
                                       static_cast<uint8_t>(Kind), now()));
  }

  static uint64_t now() { return record::RecordRuntime::nowNs(); }

  /// Finalizes and returns the trace with its grant schedule.  All
  /// recorded threads must have finished issuing events; the recorder
  /// must not be reused.  A recording that lost a record fails with
  /// ErrorCode::RecordingFailed instead of returning a shorter trace.
  Expected<Trace> finish() EXCLUDES(Mu);

private:
  /// The v3 byte stream the runtime's flusher writes.  Written only
  /// under the runtime's flush mutex and read by finish() after
  /// finalize() joined the flusher.  Declared before RT, which streams
  /// into it until it is destroyed.
  std::vector<uint8_t> Bytes;
  Mutex Mu;
  /// Node-stable, so handed-out lists never move.
  std::map<LockId, GrantList> Grants GUARDED_BY(Mu);
  record::RecordRuntime RT;
};

/// Registers (once) the code site spanning \p BeginLine-\p EndLine of
/// the current function.
#define PERFPLAY_CODE_SITE(RecorderRef, BeginLine, EndLine)                  \
  (RecorderRef).registerSite(__FILE__, __func__, (BeginLine), (EndLine))

/// A mutex that records its acquisitions and releases.  A full
/// capability to the thread-safety analysis, so application state in
/// recorded programs can be GUARDED_BY a RecordingMutex.
class CAPABILITY("mutex") RecordingMutex {
public:
  RecordingMutex(Recorder &R, std::string Name, bool IsSpin = false)
      : R(R), Id(R.registerLock(std::move(Name), IsSpin)),
        Grants(R.grants(Id)) {}

  RecordingMutex(const RecordingMutex &) = delete;
  RecordingMutex &operator=(const RecordingMutex &) = delete;

  /// Acquires, recording wait separately from computation.
  void lock(ThreadId T, CodeSiteId Site = InvalidId) ACQUIRE() {
    const uint64_t T0 = Recorder::now();
    Mu.lock();
    Grants.push_back(T);
    R.push(record::RecOp::MutexAcquire, Id, Site, T0);
  }

  /// Trylock: never waits, records the attempt either way (a failed
  /// try is a contention witness, a successful one opens a section).
  bool tryLock(ThreadId T, CodeSiteId Site = InvalidId) TRY_ACQUIRE(true) {
    const uint64_t T0 = Recorder::now();
    bool Ok = Mu.try_lock();
    if (Ok)
      Grants.push_back(T);
    R.push(record::RecOp::TryAcquire, Id, Site, T0,
           Ok ? record::RecFlagTrySucceeded : 0);
    return Ok;
  }

  /// Releases.
  void unlock(ThreadId) RELEASE() {
    Mu.unlock();
    R.push(record::RecOp::Release, Id, InvalidId, Recorder::now());
  }

private:
  friend class RecordingCondition;
  Recorder &R;
  LockId Id;
  /// Appended only while Mu is held.
  Recorder::GrantList &Grants;
  std::mutex Mu;
};

/// A reader/writer lock that records its acquisitions with their mode:
/// writer sections pair like plain mutex sections, reader sections open
/// in AcquireMode::Shared and reader-reader pairs are ULCP-free by the
/// detector's static rule.
class CAPABILITY("shared_mutex") RecordingSharedMutex {
public:
  RecordingSharedMutex(Recorder &R, std::string Name)
      : R(R), Id(R.registerLock(std::move(Name))), Grants(&R.grants(Id)) {}

  RecordingSharedMutex(const RecordingSharedMutex &) = delete;
  RecordingSharedMutex &operator=(const RecordingSharedMutex &) = delete;

  /// Writer acquire, recording wait separately from computation.
  void lock(ThreadId T, CodeSiteId Site = InvalidId) ACQUIRE() {
    const uint64_t T0 = Recorder::now();
    Mu.lock();
    granted(T);
    R.push(record::RecOp::RwAcquireWrite, Id, Site, T0);
  }

  void unlock(ThreadId) RELEASE() {
    Mu.unlock();
    R.push(record::RecOp::Release, Id, InvalidId, Recorder::now());
  }

  /// Reader acquire (concurrent holders allowed).
  void lockShared(ThreadId T, CodeSiteId Site = InvalidId)
      ACQUIRE_SHARED() {
    const uint64_t T0 = Recorder::now();
    Mu.lock_shared();
    granted(T);
    R.push(record::RecOp::RwAcquireRead, Id, Site, T0);
  }

  void unlockShared(ThreadId) RELEASE_SHARED() {
    Mu.unlock_shared();
    R.push(record::RecOp::Release, Id, InvalidId, Recorder::now());
  }

  bool tryLock(ThreadId T, CodeSiteId Site = InvalidId) TRY_ACQUIRE(true) {
    const uint64_t T0 = Recorder::now();
    bool Ok = Mu.try_lock();
    return tried(T, Site, T0, Ok, /*Shared=*/false);
  }

  bool tryLockShared(ThreadId T, CodeSiteId Site = InvalidId)
      TRY_ACQUIRE_SHARED(true) {
    const uint64_t T0 = Recorder::now();
    bool Ok = Mu.try_lock_shared();
    return tried(T, Site, T0, Ok, /*Shared=*/true);
  }

private:
  /// Appends \p T to the grant list; concurrent readers serialize on
  /// GrantMu.
  void granted(ThreadId T) EXCLUDES(GrantMu) {
    MutexLock Guard(GrantMu);
    Grants->push_back(T);
  }

  bool tried(ThreadId T, CodeSiteId Site, uint64_t T0, bool Ok,
             bool Shared) {
    if (Ok)
      granted(T);
    R.push(record::RecOp::TryAcquire, Id, Site, T0,
           static_cast<uint8_t>((Ok ? record::RecFlagTrySucceeded : 0) |
                                (Shared ? record::RecFlagShared : 0)));
    return Ok;
  }

  Recorder &R;
  LockId Id;
  Mutex GrantMu;
  Recorder::GrantList *const Grants PT_GUARDED_BY(GrantMu);
  std::shared_mutex Mu;
};

/// RAII critical section over a RecordingMutex.
class SCOPED_CAPABILITY RecordedSection {
public:
  RecordedSection(RecordingMutex &Mu, ThreadId T,
                  CodeSiteId Site = InvalidId) ACQUIRE(Mu)
      : Mu(Mu), T(T) {
    Mu.lock(T, Site);
  }
  ~RecordedSection() RELEASE() { Mu.unlock(T); }

  RecordedSection(const RecordedSection &) = delete;
  RecordedSection &operator=(const RecordedSection &) = delete;

private:
  RecordingMutex &Mu;
  ThreadId T;
};

/// A condition variable that records the lock dance of
/// pthread_cond_wait (Appendix Case 1): the wait releases the lock
/// (closing the critical section), sleeps without charging
/// computation, and re-acquires it (opening a fresh section — often a
/// null-lock, which is exactly the ULCP the paper's Case 1 describes).
class RecordingCondition {
public:
  /// Anonymous condvar: the lock dance is recorded, but no
  /// CondWait/CondSignal ordering events appear in the trace.
  RecordingCondition() = default;

  /// Named condvar registered in \p R's lock table: waits and signals
  /// additionally emit CondWait / CondSignal / CondBroadcast events,
  /// giving the detector the causal wait-signal ordering edge.
  RecordingCondition(Recorder &R, std::string Name)
      : Rec(&R), Id(R.registerLock(std::move(Name))) {}

  /// Waits until \p Pred holds.  \p Mu must be held by \p T; on return
  /// it is held again and the trace shows release / re-acquire events.
  /// (The analysis models the wait as holding \p Mu throughout, like
  /// std::condition_variable; the transient release is internal.)
  template <typename Pred>
  void wait(RecordingMutex &Mu, ThreadId T, Pred P,
            CodeSiteId ReacquireSite = InvalidId) REQUIRES(Mu);

  /// Wake one / every waiter; a named condvar first records the
  /// CondSignal / CondBroadcast event.
  void notifyOne(ThreadId) {
    if (Rec)
      Rec->push(record::RecOp::CondSignal, Id, InvalidId, Recorder::now());
    Cv.notify_one();
  }
  void notifyAll(ThreadId) {
    if (Rec)
      Rec->push(record::RecOp::CondBroadcast, Id, InvalidId,
                Recorder::now());
    Cv.notify_all();
  }

private:
  Recorder *Rec = nullptr;
  LockId Id = InvalidId;
  std::condition_variable_any Cv;
};

/// Allocates process-unique shadow addresses for shared variables.
AddrId allocateShadowAddr();

/// A shared variable whose accesses are recorded with observed values,
/// feeding the reversed-replay benign analysis.  \p T must be an
/// unsigned integral type convertible to uint64_t.
template <typename T> class SharedVar {
public:
  /// \p Name documents the variable at the call site; the trace
  /// identifies it by its shadow address.
  SharedVar(Recorder &R, const std::string & /*Name*/, T Init = T())
      : R(R), Addr(allocateShadowAddr()), Value(Init) {}

  /// Recorded read.  Call with the protecting lock held, from the
  /// registered thread the ThreadId names (records go to the calling
  /// thread's ring).
  T load(ThreadId) {
    T V = Value.load(std::memory_order_relaxed);
    R.access(record::RecOp::Read, Addr, static_cast<uint64_t>(V));
    return V;
  }

  /// Recorded store.  Call with the protecting lock held.
  void store(ThreadId, T V) {
    Value.store(V, std::memory_order_relaxed);
    R.access(record::RecOp::Write, Addr, static_cast<uint64_t>(V));
  }

  /// Recorded fetch-add (commutative; reversed replay classifies
  /// add-add pairs as benign).
  T fetchAdd(ThreadId, T Delta) {
    T Old = Value.fetch_add(Delta, std::memory_order_relaxed);
    R.access(record::RecOp::Write, Addr, static_cast<uint64_t>(Delta),
             WriteOpKind::Add);
    return Old;
  }

  AddrId addr() const { return Addr; }

private:
  Recorder &R;
  AddrId Addr;
  std::atomic<T> Value;
};

template <typename Pred>
void RecordingCondition::wait(RecordingMutex &Mu, ThreadId T, Pred P,
                              CodeSiteId ReacquireSite) {
  const uint64_t T0 = Recorder::now();
  {
    std::unique_lock<std::mutex> Guard(Mu.Mu, std::adopt_lock);
    Cv.wait(Guard, P);
    Guard.release(); // Keep the native mutex held past this scope.
  }
  Mu.Grants.push_back(T);
  // The flusher turns a CondWait record into the whole dance: the
  // ordering edge inside the section that decided to sleep, its
  // release, and a fresh section at wake-up (Case 1's second pair),
  // with the sleep T0..now charged as waiting, not compute.  An
  // anonymous condvar records the release and re-acquire alone.
  if (Rec) {
    Rec->push(record::RecOp::CondWait, Id, ReacquireSite, T0, 0, Mu.Id);
    return;
  }
  Mu.R.push(record::RecOp::Release, Mu.Id, InvalidId, T0);
  Mu.R.push(record::RecOp::MutexAcquire, Mu.Id, ReacquireSite, T0);
}

} // namespace perfplay

#endif // PERFPLAY_RUNTIME_INSTRUMENT_H
