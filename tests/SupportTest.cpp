//===- tests/SupportTest.cpp - support library unit tests ------------------===//

#include "support/FlatMap.h"
#include "support/Format.h"
#include "support/Interval.h"
#include "support/Rng.h"
#include "support/SetOps.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <string>

#ifdef __linux__
#include <sched.h>
#endif

using namespace perfplay;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng R(7);
  for (int I = 0; I != 20; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 2000; ++I) {
    uint64_t V = R.nextInRange(5, 8);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 8u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 4u) << "all values of a small range reachable";
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(11);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng R(13);
  for (int I = 0; I != 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(RngTest, NextBoolFrequencyRoughlyMatchesP) {
  Rng R(17);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    Hits += R.nextBool(0.3);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.02);
}

TEST(RngTest, NextWeightedRespectsZeroWeights) {
  Rng R(19);
  double Weights[3] = {0.0, 1.0, 0.0};
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(R.nextWeighted(Weights, 3), 1u);
}

TEST(RngTest, NextWeightedDistribution) {
  Rng R(23);
  double Weights[2] = {3.0, 1.0};
  int First = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    First += R.nextWeighted(Weights, 2) == 0;
  EXPECT_NEAR(static_cast<double>(First) / N, 0.75, 0.02);
}

TEST(RngTest, SplitMix64IsStateless) {
  EXPECT_EQ(splitMix64(123), splitMix64(123));
  EXPECT_NE(splitMix64(123), splitMix64(124));
}

//===----------------------------------------------------------------------===//
// RunningStats
//===----------------------------------------------------------------------===//

TEST(StatsTest, EmptyIsZero) {
  RunningStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.min(), 0.0);
  EXPECT_DOUBLE_EQ(S.max(), 0.0);
  EXPECT_DOUBLE_EQ(S.range(), 0.0);
}

TEST(StatsTest, SingleSample) {
  RunningStats S;
  S.add(5.0);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 5.0);
  EXPECT_DOUBLE_EQ(S.max(), 5.0);
  EXPECT_DOUBLE_EQ(S.range(), 0.0);
}

TEST(StatsTest, KnownMeanAndRange) {
  RunningStats S;
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(V);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.range(), 7.0);
}

TEST(StatsTest, ConstantStreamHasZeroRange) {
  RunningStats S;
  for (int I = 0; I != 10; ++I)
    S.add(3.5);
  EXPECT_DOUBLE_EQ(S.mean(), 3.5);
  EXPECT_DOUBLE_EQ(S.range(), 0.0);
}

//===----------------------------------------------------------------------===//
// LineInterval
//===----------------------------------------------------------------------===//

TEST(IntervalTest, EmptyByDefault) {
  LineInterval I;
  EXPECT_TRUE(I.empty());
  EXPECT_EQ(I.size(), 0u);
}

TEST(IntervalTest, SizeAndContains) {
  LineInterval I(10, 19);
  EXPECT_FALSE(I.empty());
  EXPECT_EQ(I.size(), 10u);
  EXPECT_TRUE(I.contains(10));
  EXPECT_TRUE(I.contains(19));
  EXPECT_FALSE(I.contains(9));
  EXPECT_FALSE(I.contains(20));
}

TEST(IntervalTest, OverlapCases) {
  EXPECT_TRUE(overlaps(LineInterval(1, 5), LineInterval(5, 9)));
  EXPECT_TRUE(overlaps(LineInterval(1, 9), LineInterval(3, 4)));
  EXPECT_FALSE(overlaps(LineInterval(1, 4), LineInterval(5, 9)));
  EXPECT_FALSE(overlaps(LineInterval(), LineInterval(1, 9)));
}

TEST(IntervalTest, IntersectAndUnite) {
  LineInterval A(1, 10), B(5, 20);
  EXPECT_EQ(intersect(A, B), LineInterval(5, 10));
  EXPECT_EQ(unite(A, B), LineInterval(1, 20));
  EXPECT_TRUE(intersect(LineInterval(1, 2), LineInterval(4, 5)).empty());
  EXPECT_EQ(unite(LineInterval(), LineInterval(3, 4)), LineInterval(3, 4));
}

//===----------------------------------------------------------------------===//
// Sorted set operations
//===----------------------------------------------------------------------===//

TEST(SetOpsTest, IntersectsBasic) {
  std::vector<int> A = {1, 3, 5}, B = {2, 3, 4}, C = {6, 7};
  EXPECT_TRUE(sortedIntersects(A, B));
  EXPECT_FALSE(sortedIntersects(A, C));
  EXPECT_FALSE(sortedIntersects(std::vector<int>{}, A));
}

TEST(SetOpsTest, IntersectionContents) {
  std::vector<int> A = {1, 2, 3, 7, 9}, B = {2, 3, 4, 9};
  EXPECT_EQ(sortedIntersection(A, B), (std::vector<int>{2, 3, 9}));
}

TEST(SetOpsTest, GallopingPathMatchesLinear) {
  // Skewed sizes route through the galloping path; cross-check against
  // a brute-force membership test on many shapes.
  std::vector<int> Large(1000);
  std::iota(Large.begin(), Large.end(), 0);
  for (int V : Large)
    Large[V] *= 3; // 0, 3, 6, ..., 2997.
  auto brute = [&](const std::vector<int> &Small) {
    for (int V : Small)
      if (std::binary_search(Large.begin(), Large.end(), V))
        return true;
    return false;
  };
  std::vector<std::vector<int>> Smalls = {
      {},          {1},         {3},           {2996},  {2997},
      {2998},      {-5, 9000},  {1, 2, 4, 5},  {1, 30}, {2995, 2998},
      {0},         {1, 2997},   {-1, 0},       {5000},  {1500},
  };
  for (const auto &Small : Smalls) {
    EXPECT_EQ(sortedIntersects(Small, Large), brute(Small));
    EXPECT_EQ(sortedIntersects(Large, Small), brute(Small));
  }
}

TEST(SetOpsTest, GallopingDenseHitLateInLarge) {
  std::vector<int> Small = {999};
  std::vector<int> Large(1000);
  std::iota(Large.begin(), Large.end(), 0);
  EXPECT_TRUE(sortedIntersects(Small, Large));
  EXPECT_TRUE(sortedIntersects(Large, Small));
}

namespace {

/// detail::gallopingIntersects over int vectors.
bool gallops(const std::vector<int> &Small, const std::vector<int> &Large) {
  return detail::gallopingIntersects(Small, Large);
}

} // namespace

TEST(SetOpsTest, GallopingDuplicatesInSmall) {
  // Duplicates in the probing side must re-probe an empty window, not
  // a stale one: a duplicate of a missing value stays missing, a
  // duplicate of a present value still hits.
  std::vector<int> Large(1000);
  std::iota(Large.begin(), Large.end(), 0);
  for (int &V : Large)
    V *= 4; // 0, 4, ..., 3996.
  EXPECT_FALSE(gallops({5, 5, 5}, Large));
  EXPECT_FALSE(gallops({1, 1, 2, 2, 3999}, Large));
  EXPECT_TRUE(gallops({5, 5, 8}, Large));
  EXPECT_TRUE(gallops({3996, 3996}, Large));
  // Duplicates in Large as well.
  std::vector<int> Dups = {2, 2, 2, 6, 6, 10};
  EXPECT_TRUE(gallops({6, 6}, Dups));
  EXPECT_FALSE(gallops({3, 3, 7, 7}, Dups));
}

TEST(SetOpsTest, GallopingFinalStepOvershoot) {
  // Sizes chosen so the last widening step would overshoot the end of
  // Large without the Remain clamp: Large sizes just below and above
  // powers of two, probes landing in the final partial window.
  for (size_t N : {5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u, 127u, 129u}) {
    std::vector<int> Large(N);
    std::iota(Large.begin(), Large.end(), 0);
    for (int &V : Large)
      V *= 2; // 0, 2, ..., 2(N-1).
    int Last = Large.back();
    // Hits and misses around the very last element.
    EXPECT_TRUE(gallops({Last}, Large)) << N;
    EXPECT_FALSE(gallops({Last - 1}, Large)) << N;
    EXPECT_FALSE(gallops({Last + 1}, Large)) << N;
    EXPECT_FALSE(gallops({Last + 2}, Large)) << N;
    // A miss past the end followed by nothing else terminates cleanly.
    EXPECT_FALSE(
        gallops({1, Last + 1}, Large)) << N;
    // Every element probed in ascending order: exercises the widening
    // loop restart at each position, including the final window.
    EXPECT_TRUE(gallops(Large, Large)) << N;
  }
}

TEST(SetOpsTest, GallopingAdversarialSkew) {
  // Clustered probes: runs of near-identical values followed by a jump
  // to the far end, so consecutive values gallop from a freshly
  // advanced Lo every time.
  std::vector<long> Large;
  for (long V = 0; V != 10000; ++V)
    Large.push_back(V * 10);
  std::vector<long> ProbeMiss = {1, 2, 3, 4,     49998, 49999,
                                 50001, 99999, 100001, 1000001};
  EXPECT_FALSE(detail::gallopingIntersects(ProbeMiss, Large));
  std::vector<long> ProbeHitLast = {1, 2, 3, 99990};
  EXPECT_TRUE(detail::gallopingIntersects(ProbeHitLast, Large));
  std::vector<long> ProbeHitFirst = {0, 5, 15, 25};
  EXPECT_TRUE(detail::gallopingIntersects(ProbeHitFirst, Large));
}

TEST(SetOpsTest, FuzzAgainstSetIntersection) {
  // Seeded fuzz: sortedIntersects / sortedIntersection (and both
  // galloping orientations) against std::set_intersection ground
  // truth, with and without duplicates, over narrow value ranges that
  // force overlaps and adversarial skews that force the galloping
  // path.
  std::mt19937_64 Rng(20260730);
  for (int Iter = 0; Iter != 20000; ++Iter) {
    std::uniform_int_distribution<int> SmallN(0, 8), LargeN(0, 300),
        ValD(0, 160);
    std::vector<int> A, B;
    int An = SmallN(Rng), Bn = LargeN(Rng);
    for (int I = 0; I != An; ++I)
      A.push_back(ValD(Rng));
    for (int I = 0; I != Bn; ++I)
      B.push_back(ValD(Rng));
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    if (Rng() & 1)
      A.erase(std::unique(A.begin(), A.end()), A.end());
    if (Rng() & 1)
      B.erase(std::unique(B.begin(), B.end()), B.end());

    std::vector<int> Truth;
    std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                          std::back_inserter(Truth));
    ASSERT_EQ(sortedIntersects(A, B), !Truth.empty()) << "iter " << Iter;
    ASSERT_EQ(sortedIntersects(B, A), !Truth.empty()) << "iter " << Iter;
    ASSERT_EQ(sortedIntersection(A, B), Truth) << "iter " << Iter;
    if (!A.empty() && !B.empty()) {
      ASSERT_EQ(detail::gallopingIntersects(A, B), !Truth.empty())
          << "iter " << Iter;
      ASSERT_EQ(detail::gallopingIntersects(B, A), !Truth.empty())
          << "iter " << Iter;
    }
  }
}

//===----------------------------------------------------------------------===//
// FlatMap
//===----------------------------------------------------------------------===//

TEST(FlatMapTest, InsertFindGrow) {
  FlatMap<uint64_t, uint64_t> M;
  EXPECT_TRUE(M.empty());
  for (uint64_t I = 0; I != 1000; ++I)
    M[I * 7] = I;
  EXPECT_EQ(M.size(), 1000u);
  for (uint64_t I = 0; I != 1000; ++I) {
    const uint64_t *V = M.find(I * 7);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, I);
  }
  EXPECT_EQ(M.find(1), nullptr);
}

TEST(FlatMapTest, InsertIsIdempotent) {
  FlatMap<uint64_t, int> M;
  EXPECT_TRUE(M.insert(5, 1));
  EXPECT_FALSE(M.insert(5, 2));
  EXPECT_EQ(*M.find(5), 1);
}

TEST(FlatMapTest, EqualityIsOrderIndependent) {
  FlatMap<uint64_t, uint64_t> A, B;
  for (uint64_t I = 0; I != 100; ++I)
    A[I] = I * I;
  for (uint64_t I = 100; I != 0; --I)
    B[I - 1] = (I - 1) * (I - 1);
  EXPECT_TRUE(A == B);
  B[7] = 0;
  EXPECT_TRUE(A != B);
  FlatMap<uint64_t, uint64_t> C;
  C[1] = 1;
  EXPECT_TRUE(A != C);
}

TEST(FlatMapTest, ForEachVisitsEveryEntry) {
  FlatMap<uint64_t, uint64_t> M;
  uint64_t Sum = 0;
  for (uint64_t I = 1; I <= 50; ++I)
    M[I] = I;
  M.forEach([&](uint64_t, uint64_t V) { Sum += V; });
  EXPECT_EQ(Sum, 50u * 51 / 2);
}

TEST(FlatMapTest, ClearKeepsCapacityForReuse) {
  FlatMap<uint64_t, int> M;
  for (uint64_t I = 0; I != 100; ++I)
    M[I] = static_cast<int>(I);
  size_t Capacity = M.capacity();
  M.clear();
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.capacity(), Capacity);
  for (uint64_t I = 0; I != 100; ++I)
    EXPECT_EQ(M.find(I), nullptr);
  // Refilled with different entries, the map works as new and keeps
  // its slots: 100 entries fit the capacity the first fill grew to.
  EXPECT_TRUE(M.insert(7, 70));
  EXPECT_FALSE(M.insert(7, 71));
  EXPECT_EQ(*M.find(7), 70);
  EXPECT_EQ(M[1000], 0);
  EXPECT_EQ(M.size(), 2u);
  for (uint64_t I = 200; I != 298; ++I)
    M[I] = static_cast<int>(I);
  EXPECT_EQ(M.size(), 100u);
  EXPECT_EQ(M.capacity(), Capacity);
  EXPECT_EQ(*M.find(250), 250);
  EXPECT_EQ(M.find(5), nullptr);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(resolveThreadCount(4, 100), 4u);
  EXPECT_EQ(resolveThreadCount(4, 2), 2u);
  EXPECT_EQ(resolveThreadCount(4, 0), 1u);
  EXPECT_EQ(resolveThreadCount(1000, 1000), 256u);
  EXPECT_GE(resolveThreadCount(0, 100), 1u);
}

// The default budget is the process's affinity mask, so a process
// pinned to one CPU (taskset -c N) fans out to one worker.
TEST(ThreadPoolTest, ResolveThreadCountFollowsAffinity) {
#ifdef __linux__
  cpu_set_t Saved;
  CPU_ZERO(&Saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(Saved), &Saved), 0);
  int First = 0;
  while (!CPU_ISSET(First, &Saved))
    ++First;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(First, &One);
  ASSERT_EQ(sched_setaffinity(0, sizeof(One), &One), 0);
  const unsigned Pinned = resolveThreadCount(0, 100);
  ASSERT_EQ(sched_setaffinity(0, sizeof(Saved), &Saved), 0);
  EXPECT_EQ(Pinned, 1u);
  // Unpinned, the budget is the mask, or the cgroup quota if smaller.
  unsigned Budget = std::min<unsigned>(CPU_COUNT(&Saved), 100u);
  std::ifstream CpuMax("/sys/fs/cgroup/cpu.max");
  std::string Text;
  std::getline(CpuMax, Text);
  if (unsigned Cap = parseCpuMax(Text); Cap != 0)
    Budget = std::min(Budget, Cap);
  EXPECT_EQ(resolveThreadCount(0, 100), Budget);
#else
  GTEST_SKIP() << "no sched_getaffinity on this platform";
#endif
}

// cgroup v2 cpu.max: "<quota> <period>" buys ceil(quota/period) CPUs;
// "max", an empty file or a malformed one sets no cap.
TEST(ThreadPoolTest, ParsesCgroupCpuMax) {
  EXPECT_EQ(parseCpuMax("200000 100000\n"), 2u);
  EXPECT_EQ(parseCpuMax("150000 100000"), 2u);
  EXPECT_EQ(parseCpuMax("50000 100000\n"), 1u);
  EXPECT_EQ(parseCpuMax("400000 100000\n"), 4u);
  EXPECT_EQ(parseCpuMax("max 100000\n"), 0u);
  EXPECT_EQ(parseCpuMax(""), 0u);
  EXPECT_EQ(parseCpuMax("\n"), 0u);
  EXPECT_EQ(parseCpuMax("200000"), 0u);
  EXPECT_EQ(parseCpuMax("200000 0\n"), 0u);
  EXPECT_EQ(parseCpuMax("0 100000\n"), 0u);
  EXPECT_EQ(parseCpuMax("-5 100000\n"), 0u);
  EXPECT_EQ(parseCpuMax("200000 100000 7\n"), 0u);
  EXPECT_EQ(parseCpuMax("abc def"), 0u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryItem) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> Hits(257);
    parallelFor(Threads, Hits.size(),
                [&](size_t I) { Hits[I].fetch_add(1); });
    for (const auto &H : Hits)
      EXPECT_EQ(H.load(), 1);
  }
  // No items: Fn never runs and no thread starts.
  parallelFor(4, 0, [](size_t) { ADD_FAILURE() << "ran an item"; });
}

//===----------------------------------------------------------------------===//
// Table / Format
//===----------------------------------------------------------------------===//

TEST(TableTest, RendersAlignedColumns) {
  Table T;
  T.addRow({"name", "value"});
  T.addRow({"x", "10"});
  T.addRow({"longer", "7"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name    value"), std::string::npos);
  EXPECT_NE(Out.find("longer  7"), std::string::npos);
  EXPECT_NE(Out.find("-----"), std::string::npos);
}

TEST(TableTest, EmptyRenders) {
  Table T;
  EXPECT_EQ(T.render(), "");
}

TEST(TableTest, RaggedRowsPadded) {
  Table T;
  T.addRow({"a", "b", "c"});
  T.addRow({"1"});
  EXPECT_NO_FATAL_FAILURE({ std::string S = T.render(); });
}

TEST(FormatTest, FormatNsUnits) {
  EXPECT_EQ(formatNs(312), "312ns");
  EXPECT_EQ(formatNs(4250), "4.25us");
  EXPECT_EQ(formatNs(1500000), "1.50ms");
  EXPECT_EQ(formatNs(2000000000ULL), "2.00s");
}

TEST(FormatTest, FormatPercent) {
  EXPECT_EQ(formatPercent(0.051), "5.1%");
  EXPECT_EQ(formatPercent(0.051, 2), "5.10%");
  EXPECT_EQ(formatPercent(1.0), "100.0%");
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}
