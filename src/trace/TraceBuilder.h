//===- trace/TraceBuilder.h - Convenient trace construction -----*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fluent construction of traces for tests, examples and the synthetic
/// workload generators.  The builder tracks per-thread lock nesting so
/// misuse (unbalanced release, dangling hold at thread end) is caught at
/// construction time instead of by Trace::validate() later.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRACE_TRACEBUILDER_H
#define PERFPLAY_TRACE_TRACEBUILDER_H

#include "trace/Trace.h"

#include <string>
#include <vector>

namespace perfplay {

/// Builds a Trace incrementally.
///
/// Typical usage:
/// \code
///   TraceBuilder B;
///   LockId Mu = B.addLock("mu");
///   CodeSiteId Site = B.addSite("fil0fil.cc", "fil_flush", 5473, 5592);
///   ThreadId T0 = B.addThread();
///   B.beginCs(T0, Mu, Site);
///   B.read(T0, /*Addr=*/1);
///   B.compute(T0, /*Cost=*/500);
///   B.endCs(T0);
///   Trace Tr = B.finish();
/// \endcode
class TraceBuilder {
public:
  /// Registers a lock and returns its id.
  LockId addLock(std::string Name, bool IsSpin = false);

  /// Registers a code site and returns its id.
  CodeSiteId addSite(std::string File, std::string Function,
                     uint32_t BeginLine, uint32_t EndLine);

  /// Adds a thread (emitting its ThreadStart) and returns its id.
  ThreadId addThread();

  /// Opens a critical section on \p Lock at \p Site.
  void beginCs(ThreadId T, LockId Lock, CodeSiteId Site = InvalidId);

  /// Opens a reader-side (shared) rwlock critical section.  Closed by
  /// endCs() like any other section.
  void beginCsShared(ThreadId T, LockId Lock, CodeSiteId Site = InvalidId);

  /// Opens a writer-side (exclusive) rwlock critical section.
  void beginCsWrite(ThreadId T, LockId Lock, CodeSiteId Site = InvalidId);

  /// Records a trylock attempt.  A successful try opens a critical
  /// section (close with endCs()); a failed try emits only the failure
  /// event.  Returns \p Succeeded for fluent use.
  bool tryCs(ThreadId T, LockId Lock, CodeSiteId Site, bool Succeeded,
             AcquireMode Mode = AcquireMode::Exclusive);

  /// Records a condition-variable wait on \p Cond (registered via
  /// addLock — condvars live in the lock table).
  void condWait(ThreadId T, LockId Cond, CodeSiteId Site = InvalidId);

  /// Records a condition-variable signal.
  void condSignal(ThreadId T, LockId Cond);

  /// Records a condition-variable broadcast.
  void condBroadcast(ThreadId T, LockId Cond);

  /// Closes the innermost critical section of \p T.
  void endCs(ThreadId T);

  /// Emits a shared read.  Must be inside at least one critical section
  /// unless \p AllowUnlocked (races outside locks are not this paper's
  /// subject, but tests construct them deliberately).
  void read(ThreadId T, AddrId Addr, uint64_t Value = 0,
            bool AllowUnlocked = false);

  /// Emits a shared write.
  void write(ThreadId T, AddrId Addr, uint64_t Value,
             WriteOpKind Op = WriteOpKind::Store, bool AllowUnlocked = false);

  /// Emits computation of \p Cost virtual nanoseconds.
  void compute(ThreadId T, TimeNs Cost);

  /// Finalizes every thread with ThreadEnd and returns the trace with
  /// its CS index built.  The builder must not be reused afterwards.
  Trace finish();

private:
  Trace Result;
  /// Stack of (lock) currently held, per thread.
  std::vector<std::vector<LockId>> HeldStacks;
  bool Finished = false;
};

} // namespace perfplay

#endif // PERFPLAY_TRACE_TRACEBUILDER_H
