//===- runtime/Recorder.h - Live execution recording ------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recording substrate that stands in for the paper's Pin-based
/// instrumentation: applications link against RecordingMutex /
/// SharedVar (runtime/Instrument.h) and every synchronization operation
/// and shared access is logged here, with the computation between
/// events collapsed into Compute(cost) — the paper's selective
/// recording (Section 5.1).  Lock-waiting time is excluded from the
/// recorded computation (the replayer re-derives contention), and the
/// global grant order of every lock is captured as the schedule ELSC
/// enforces on replay.
///
/// Thread safety: per-thread event buffers are touched only by their
/// owning thread; the registry of threads/locks/sites and the
/// grant-order log are serialized by the internal Registry mutex.
/// Registry is a leaf lock in the hierarchy: it is taken while a
/// recorded application lock may already be held (onAcquired runs with
/// the recorded lock held, so the registry adds no ordering of its
/// own) and nothing is ever acquired under it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_RUNTIME_RECORDER_H
#define PERFPLAY_RUNTIME_RECORDER_H

#include "support/ThreadAnnotations.h"
#include "trace/Trace.h"

#include <chrono>
#include <string>
#include <vector>

namespace perfplay {

/// Collects a Trace from a live multi-threaded execution.
///
/// Lifecycle: register locks/sites up front, register each thread from
/// the thread itself, feed events through the on* hooks (normally via
/// runtime/Instrument.h wrappers), then call finish() after all
/// recorded threads have joined.
class Recorder {
public:
  Recorder();

  /// Registers a lock; thread-safe.
  LockId registerLock(std::string Name, bool IsSpin = false);

  /// Registers a condition variable; condvars share the lock table
  /// (CondWait/CondSignal events reference them by LockId).
  LockId registerCondition(std::string Name);

  /// Registers (or re-finds) a code site; thread-safe, deduplicated.
  CodeSiteId registerSite(std::string File, std::string Function,
                          uint32_t BeginLine, uint32_t EndLine);

  /// Registers the calling thread and returns its id.
  ThreadId registerThread();

  /// Hook: the thread is about to contend for \p Lock.  Computation
  /// since the previous event is captured; waiting starts now.
  void onAcquireStart(ThreadId T);

  /// Hook: the thread now holds \p Lock (call with the lock held).
  /// The wait since onAcquireStart is *not* recorded as computation.
  void onAcquired(ThreadId T, LockId Lock, CodeSiteId Site);

  /// Hook: the thread now holds \p Lock as an rwlock reader (call with
  /// the lock held); opens an AcquireMode::Shared section.
  void onRwAcquiredRead(ThreadId T, LockId Lock, CodeSiteId Site);

  /// Hook: the thread now holds \p Lock as an rwlock writer.
  void onRwAcquiredWrite(ThreadId T, LockId Lock, CodeSiteId Site);

  /// Hook: a trylock attempt on \p Lock just returned \p Succeeded.
  /// Trylocks never wait, so there is no onAcquireStart counterpart; a
  /// successful try opens a section like the blocking acquire, a
  /// failed one records only the contention witness.
  void onTryAcquire(ThreadId T, LockId Lock, CodeSiteId Site,
                    bool Succeeded,
                    AcquireMode Mode = AcquireMode::Exclusive);

  /// Hook: the thread released \p Lock (call right after unlocking).
  void onRelease(ThreadId T, LockId Lock);

  /// Hook: the thread is about to sleep on condvar \p Cond (emit while
  /// the protecting critical section is still open, so the ordering
  /// edge attaches to the section that decided to sleep).
  void onCondWait(ThreadId T, LockId Cond, CodeSiteId Site);

  /// Hook: the thread signaled / broadcast condvar \p Cond.
  void onCondSignal(ThreadId T, LockId Cond);
  void onCondBroadcast(ThreadId T, LockId Cond);

  /// Hook: shared read of \p Addr observing \p Value.
  void onRead(ThreadId T, AddrId Addr, uint64_t Value);

  /// Hook: shared write.
  void onWrite(ThreadId T, AddrId Addr, uint64_t Value, WriteOpKind Op);

  /// Finalizes and returns the trace.  All recorded threads must have
  /// finished issuing events.  The recorder must not be reused.
  Trace finish() EXCLUDES(Registry);

private:
  using Clock = std::chrono::steady_clock;

  /// One thread's event log.  Owned by the registry but — by design —
  /// written without it: after registerThread hands out the id, every
  /// field is touched only by the owning thread (finish() reads them
  /// after all recorded threads joined, which is a happens-before
  /// edge).  Heap-allocated so the pointers stay stable while
  /// ThreadLogs itself grows under the Registry lock.
  struct PerThread {
    std::vector<Event> Events;
    Clock::time_point LastStamp;
    Clock::time_point WaitStart;
    bool Waiting = false;
  };

  /// Resolves \p T to its stable per-thread log.  Takes the Registry
  /// lock for the vector read only: concurrent registerThread calls
  /// may reallocate ThreadLogs' storage, so an unlocked index would be
  /// a data race on the vector's buffer (the pointed-to PerThread is
  /// the caller's own and needs no lock).
  PerThread &threadLog(ThreadId T) EXCLUDES(Registry);

  /// Emits the computation elapsed on \p Log's thread since its last
  /// event.  Caller must own \p Log (i.e. be its registered thread).
  void flushCompute(PerThread &Log, Clock::time_point Now);

  /// Shared tail of the acquired hooks: closes the wait (or flushes
  /// compute), logs \p E and appends to the grant order.
  void finishAcquire(ThreadId T, LockId Lock, const Event &E)
      EXCLUDES(Registry);

  /// Serializes registration, the grant log and finish().  Leaf
  /// lock; see the file comment for the hierarchy.
  mutable Mutex Registry;
  Trace Result GUARDED_BY(Registry);
  std::vector<PerThread *> ThreadLogs GUARDED_BY(Registry);
  /// Global grant order: (lock, thread) in acquisition order; per-CS
  /// indices are reconstructed in finish().
  std::vector<std::pair<LockId, ThreadId>> GrantLog GUARDED_BY(Registry);
  bool Finished GUARDED_BY(Registry) = false;
};

} // namespace perfplay

#endif // PERFPLAY_RUNTIME_RECORDER_H
