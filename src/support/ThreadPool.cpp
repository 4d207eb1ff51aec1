//===- support/ThreadPool.cpp - One-shot fork-join fan-out ------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

using namespace perfplay;

unsigned perfplay::parseCpuMax(std::string_view Text) {
  const char *End = Text.data() + Text.size();
  uint64_t Quota = 0, Period = 0;
  auto [Sep, QuotaErr] = std::from_chars(Text.data(), End, Quota);
  if (QuotaErr != std::errc() || Sep == End || *Sep != ' ')
    return 0;
  auto [Rest, PeriodErr] = std::from_chars(Sep + 1, End, Period);
  if (PeriodErr != std::errc() || Quota == 0 || Period == 0)
    return 0;
  if (Rest != End && !(Rest + 1 == End && *Rest == '\n'))
    return 0;
  return static_cast<unsigned>(
      std::min<uint64_t>((Quota + Period - 1) / Period, UINT_MAX));
}

/// CPUs this process may run on: its affinity mask, which taskset and
/// cpusets narrow, or every hardware thread where no mask is readable;
/// then the cgroup v2 CPU quota, which a container's --cpus sets.
static unsigned availableCpus() {
  unsigned N = std::thread::hardware_concurrency();
#ifdef __linux__
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    N = static_cast<unsigned>(CPU_COUNT(&Set));
#endif
  if (std::FILE *F = std::fopen("/sys/fs/cgroup/cpu.max", "r")) {
    char Buf[64] = {};
    const size_t Len = std::fread(Buf, 1, sizeof(Buf), F);
    std::fclose(F);
    if (unsigned Cap = parseCpuMax(std::string_view(Buf, Len)); Cap != 0)
      N = std::min(N, Cap);
  }
  return N;
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
