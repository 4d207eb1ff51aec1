//===- support/ThreadPool.cpp - One-shot fork-join fan-out ------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

using namespace perfplay;

/// CPUs this process may run on: its affinity mask, which taskset and
/// cpusets narrow, or every hardware thread where no mask is readable.
static unsigned availableCpus() {
#ifdef __linux__
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0) {
    int N = CPU_COUNT(&Set);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
#endif
  return std::thread::hardware_concurrency();
}

unsigned perfplay::resolveThreadCount(unsigned Requested, size_t NumItems) {
  unsigned N = Requested;
  if (N == 0)
    N = std::max(availableCpus(), 1u);
  // Hard ceiling: a wrapped/absurd request (e.g. -1 cast to unsigned)
  // must not translate into thousands of OS threads.
  N = std::min(N, 256u);
  N = static_cast<unsigned>(std::min<size_t>(N, std::max<size_t>(NumItems, 1)));
  return std::max(N, 1u);
}

void perfplay::parallelFor(unsigned NumThreads, size_t NumItems,
                           const std::function<void(size_t)> &Fn) {
  const size_t Workers =
      std::min<size_t>(std::max(NumThreads, 1u), NumItems);
  std::atomic<size_t> NextItem{0};
  auto work = [&] {
    for (size_t I = NextItem.fetch_add(1); I < NumItems;
         I = NextItem.fetch_add(1))
      Fn(I);
  };
  std::vector<std::thread> Threads;
  for (size_t W = 1; W < Workers; ++W)
    Threads.emplace_back(work);
  // The caller is worker 0.
  work();
  for (std::thread &T : Threads)
    T.join();
}
