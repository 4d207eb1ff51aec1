//===- support/ThreadPool.h - One-shot fork-join fan-out ---------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fork-join fan-out for Engine's batch analysis.  parallelFor starts
/// its threads, hands out items through one atomic counter (dynamic
/// load balancing), and joins every thread before returning, so the
/// caller is free to merge results deterministically afterwards.  No
/// thread outlives the call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_THREADPOOL_H
#define PERFPLAY_SUPPORT_THREADPOOL_H

#include <cstddef>
#include <functional>
#include <string_view>

namespace perfplay {

/// Resolves a user-facing thread-count knob: 0 = one per CPU this
/// process may run on (its sched_getaffinity mask where available,
/// else hardware_concurrency(), further capped by the cgroup v2 CPU
/// quota in /sys/fs/cgroup/cpu.max; at least 1), capped at 256 (absurd
/// requests must not spawn thousands of OS threads) and by
/// \p NumItems so small inputs never spawn idle workers.
unsigned resolveThreadCount(unsigned Requested, size_t NumItems);

/// Parses the text of a cgroup v2 `cpu.max` file, "<quota> <period>",
/// into the CPUs the quota buys: ceil(quota / period).  Returns 0 (no
/// cap) for "max <period>", an empty text or a malformed one.
unsigned parseCpuMax(std::string_view Text);

/// Runs \p Fn(Index) for every Index in [0, NumItems) on \p NumThreads
/// workers: NumThreads - 1 new threads plus the calling thread, each
/// claiming the next unclaimed item until none is left.  Returns once
/// every item finished and every thread joined.  NumThreads is clamped
/// to [1, NumItems]; 1 runs everything inline.
void parallelFor(unsigned NumThreads, size_t NumItems,
                 const std::function<void(size_t)> &Fn);

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_THREADPOOL_H
