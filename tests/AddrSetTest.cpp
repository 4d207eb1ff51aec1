//===- tests/AddrSetTest.cpp - chunked bitmap address sets ------------------===//
//
// Coverage for support/AddrSet.h, the word-parallel set engine behind
// Algorithm 1's dense-set intersections: membership/iteration
// round-trips, block promotion and demotion exactly at the SmallMax
// threshold, digest soundness, and property tests asserting that intersects /
// intersectCount agree with the sorted-vector ground truth across
// block densities straddling the promotion boundary.
//
//===----------------------------------------------------------------------===//

#include "support/AddrSet.h"
#include "support/SetOps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

using namespace perfplay;

namespace {

std::vector<uint64_t> sortedUnique(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
  return V;
}

std::vector<uint64_t> randomValues(std::mt19937_64 &Rng, size_t N,
                                   uint64_t MaxValue) {
  std::uniform_int_distribution<uint64_t> D(0, MaxValue);
  std::vector<uint64_t> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Out.push_back(D(Rng));
  return Out;
}

} // namespace

TEST(AddrSetTest, EmptySet) {
  AddrSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.contains(0));
  EXPECT_EQ(S.digest(), 0u);
  EXPECT_TRUE(S.toSorted().empty());
  EXPECT_FALSE(S.intersects(S));
  EXPECT_EQ(S.intersectCount(S), 0u);
}

TEST(AddrSetTest, SingletonSet) {
  AddrSet S;
  EXPECT_TRUE(S.insert(12345));
  EXPECT_FALSE(S.insert(12345)) << "duplicate insert must be a no-op";
  EXPECT_EQ(S.size(), 1u);
  EXPECT_TRUE(S.contains(12345));
  EXPECT_FALSE(S.contains(12344));
  EXPECT_NE(S.digest(), 0u);
  EXPECT_EQ(S.toSorted(), std::vector<uint64_t>{12345});
  EXPECT_TRUE(S.intersects(S));
  EXPECT_EQ(S.intersectCount(S), 1u);
}

TEST(AddrSetTest, FullChunk) {
  // All 1024 values of one chunk, plus neighbors just outside it.
  AddrSet S;
  const uint64_t Base = 7 * AddrSet::ChunkSize;
  for (uint64_t V = 0; V != AddrSet::ChunkSize; ++V)
    EXPECT_TRUE(S.insert(Base + V));
  EXPECT_EQ(S.size(), static_cast<size_t>(AddrSet::ChunkSize));
  EXPECT_FALSE(S.contains(Base - 1));
  EXPECT_FALSE(S.contains(Base + AddrSet::ChunkSize));
  for (uint64_t V = 0; V != AddrSet::ChunkSize; ++V)
    EXPECT_TRUE(S.contains(Base + V));
  AddrSet::Stats St = S.stats();
  EXPECT_EQ(St.BitmapBlocks, 1u);
  EXPECT_EQ(St.SmallBlocks, 0u);
  EXPECT_EQ(S.intersectCount(S), static_cast<size_t>(AddrSet::ChunkSize));

  std::vector<uint64_t> Sorted = S.toSorted();
  ASSERT_EQ(Sorted.size(), static_cast<size_t>(AddrSet::ChunkSize));
  for (uint64_t V = 0; V != AddrSet::ChunkSize; ++V)
    EXPECT_EQ(Sorted[V], Base + V);
}

TEST(AddrSetTest, PromotionAtThreshold) {
  // Exactly SmallMax members stay a small block; one more promotes.
  AddrSet S;
  for (unsigned I = 0; I != AddrSet::SmallMax; ++I)
    S.insert(2 * I); // Spread within one chunk (SmallMax*2 < ChunkSize).
  EXPECT_EQ(S.stats().SmallBlocks, 1u);
  EXPECT_EQ(S.stats().BitmapBlocks, 0u);

  S.insert(2 * AddrSet::SmallMax);
  EXPECT_EQ(S.stats().SmallBlocks, 0u);
  EXPECT_EQ(S.stats().BitmapBlocks, 1u);
  EXPECT_EQ(S.size(), static_cast<size_t>(AddrSet::SmallMax) + 1);
  for (unsigned I = 0; I <= AddrSet::SmallMax; ++I) {
    EXPECT_TRUE(S.contains(2 * I)) << I;
    EXPECT_FALSE(S.contains(2 * I + 1)) << I;
  }
}

TEST(AddrSetTest, DemotionOnEraseWithHysteresis) {
  AddrSet S;
  for (unsigned I = 0; I != AddrSet::SmallMax + 8; ++I)
    S.insert(I);
  EXPECT_EQ(S.stats().BitmapBlocks, 1u);

  // Erasing down into (DemoteAt, SmallMax] keeps the bitmap: the
  // hysteresis band prevents promote/demote ping-pong at the
  // boundary.
  for (unsigned V = AddrSet::SmallMax + 7; V != AddrSet::DemoteAt; --V)
    EXPECT_TRUE(S.erase(V)) << V;
  EXPECT_EQ(S.size(), static_cast<size_t>(AddrSet::DemoteAt) + 1);
  EXPECT_EQ(S.stats().BitmapBlocks, 1u);

  // The erase that reaches DemoteAt demotes.
  EXPECT_TRUE(S.erase(AddrSet::DemoteAt));
  EXPECT_EQ(S.stats().BitmapBlocks, 0u);
  EXPECT_EQ(S.stats().SmallBlocks, 1u);
  EXPECT_EQ(S.size(), static_cast<size_t>(AddrSet::DemoteAt));
  for (unsigned I = 0; I != AddrSet::DemoteAt; ++I)
    EXPECT_TRUE(S.contains(I)) << I;
  EXPECT_FALSE(S.contains(AddrSet::DemoteAt));

  // Refilling stays small through SmallMax, then re-promotes; the
  // membership survives both rewrites.
  for (unsigned I = AddrSet::DemoteAt; I != AddrSet::SmallMax; ++I)
    S.insert(I);
  EXPECT_EQ(S.stats().SmallBlocks, 1u);
  S.insert(999);
  EXPECT_EQ(S.stats().BitmapBlocks, 1u);
  for (unsigned I = 0; I != AddrSet::SmallMax; ++I)
    EXPECT_TRUE(S.contains(I)) << I;
  EXPECT_TRUE(S.contains(999));
}

TEST(AddrSetTest, EraseToEmptyRemovesChunk) {
  AddrSet S;
  S.insert(5);
  S.insert(AddrSet::ChunkSize + 5);
  EXPECT_FALSE(S.erase(6)) << "erasing an absent value is a no-op";
  EXPECT_TRUE(S.erase(5));
  EXPECT_FALSE(S.erase(5));
  EXPECT_EQ(S.size(), 1u);
  EXPECT_FALSE(S.contains(5));
  EXPECT_TRUE(S.contains(AddrSet::ChunkSize + 5));
  EXPECT_TRUE(S.erase(AddrSet::ChunkSize + 5));
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.stats().SmallBlocks + S.stats().BitmapBlocks, 0u);
}

TEST(AddrSetTest, FromSortedMatchesInsertion) {
  std::mt19937_64 Rng(7);
  for (unsigned Round = 0; Round != 20; ++Round) {
    // Densities on both sides of the promotion boundary: narrow value
    // spaces force dense chunks, wide ones stay small-block.
    uint64_t MaxValue = (Round % 2 == 0) ? 4096 : 1u << 20;
    std::vector<uint64_t> Values =
        sortedUnique(randomValues(Rng, 50 + Round * 40, MaxValue));
    AddrSet Bulk = AddrSet::fromSorted(Values);
    AddrSet Incremental;
    for (uint64_t V : Values)
      Incremental.insert(V);
    EXPECT_EQ(Bulk.size(), Values.size());
    EXPECT_EQ(Bulk, Incremental);
    EXPECT_EQ(Bulk.digest(), Incremental.digest());
    EXPECT_EQ(Bulk.toSorted(), Values);
  }
}

TEST(AddrSetTest, FromSortedToleratesDuplicates) {
  std::vector<uint64_t> WithDups = {1, 1, 2, 2, 2, 1000, 5000, 5000};
  AddrSet S = AddrSet::fromSorted(WithDups);
  EXPECT_EQ(S.size(), 4u);
  EXPECT_EQ(S.toSorted(), sortedUnique(WithDups));
}

TEST(AddrSetTest, PropertyIntersectionParity) {
  // Random pairs across block-promotion boundaries: intersects and
  // intersectCount must agree exactly with the sorted-vector ground
  // truth, whatever mix of small and bitmap blocks the densities
  // produce.
  std::mt19937_64 Rng(42);
  for (unsigned Round = 0; Round != 60; ++Round) {
    uint64_t MaxValue = 1u << (6 + Round % 12); // Dense .. sparse.
    std::vector<uint64_t> A =
        sortedUnique(randomValues(Rng, 1 + Round * 17 % 500, MaxValue));
    std::vector<uint64_t> B =
        sortedUnique(randomValues(Rng, 1 + Round * 29 % 500, MaxValue));
    AddrSet SA = AddrSet::fromSorted(A);
    AddrSet SB = AddrSet::fromSorted(B);

    std::vector<uint64_t> Truth;
    std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                          std::back_inserter(Truth));
    EXPECT_EQ(SA.intersects(SB), !Truth.empty()) << "round " << Round;
    EXPECT_EQ(SB.intersects(SA), !Truth.empty()) << "round " << Round;
    EXPECT_EQ(SA.intersectCount(SB), Truth.size()) << "round " << Round;
    EXPECT_EQ(SB.intersectCount(SA), Truth.size()) << "round " << Round;
    EXPECT_EQ(SA.intersects(SB), sortedIntersects(A, B))
        << "round " << Round;
  }
}

TEST(AddrSetTest, PropertyMembershipAfterMixedMutation) {
  // Interleaved inserts and erases tracked against a std::set oracle,
  // sized to cross the promote/demote threshold repeatedly.
  std::mt19937_64 Rng(99);
  std::uniform_int_distribution<uint64_t> D(0, 2048);
  AddrSet S;
  std::set<uint64_t> Oracle;
  for (unsigned Op = 0; Op != 4000; ++Op) {
    uint64_t V = D(Rng);
    if (Rng() % 3 != 0) {
      EXPECT_EQ(S.insert(V), Oracle.insert(V).second);
    } else {
      EXPECT_EQ(S.erase(V), Oracle.erase(V) != 0);
    }
  }
  EXPECT_EQ(S.size(), Oracle.size());
  EXPECT_EQ(S.toSorted(),
            std::vector<uint64_t>(Oracle.begin(), Oracle.end()));
}

TEST(AddrSetTest, DigestRejectionIsSound) {
  // digest() disjointness must imply set disjointness (the converse
  // need not hold).  Exercise many random pairs.
  std::mt19937_64 Rng(1234);
  unsigned Rejections = 0;
  for (unsigned Round = 0; Round != 200; ++Round) {
    AddrSet A = AddrSet::fromSorted(
        sortedUnique(randomValues(Rng, 1 + Round % 6, 1u << 30)));
    AddrSet B = AddrSet::fromSorted(
        sortedUnique(randomValues(Rng, 1 + (Round / 2) % 6, 1u << 30)));
    if ((A.digest() & B.digest()) == 0) {
      ++Rejections;
      EXPECT_FALSE(A.intersects(B));
      EXPECT_EQ(A.intersectCount(B), 0u);
    }
  }
  // Tiny random sets over a huge value space: the digest must reject
  // a healthy fraction for the O(1) fast path to matter.
  EXPECT_GT(Rejections, 50u);
}

TEST(AddrSetTest, DigestStaysSupersetAfterErase) {
  AddrSet S;
  S.insert(10);
  S.insert(20);
  uint64_t Before = S.digest();
  S.erase(20);
  // Bits are never cleared: still a sound (conservative) filter.
  EXPECT_EQ(S.digest() & Before, S.digest());
  AddrSet Only10;
  Only10.insert(10);
  EXPECT_TRUE((S.digest() & Only10.digest()) != 0);
  EXPECT_TRUE(S.intersects(Only10));
}

TEST(AddrSetTest, ClearResetsEverything) {
  AddrSet S;
  for (unsigned I = 0; I != 200; ++I)
    S.insert(I * 3);
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.digest(), 0u);
  EXPECT_FALSE(S.contains(0));
  S.insert(7);
  EXPECT_EQ(S.size(), 1u);
}

TEST(AddrSetTest, IntersectsAcrossManyChunks) {
  // Sets populating interleaved chunks share no chunk: the walk must
  // resolve via key comparisons alone.  Then add one shared value.
  AddrSet Even, Odd;
  for (uint64_t C = 0; C != 64; ++C)
    for (uint64_t V = 0; V != 8; ++V) {
      Even.insert((2 * C) * AddrSet::ChunkSize + V);
      Odd.insert((2 * C + 1) * AddrSet::ChunkSize + V);
    }
  EXPECT_FALSE(Even.intersects(Odd));
  EXPECT_EQ(Even.intersectCount(Odd), 0u);
  Odd.insert(4 * AddrSet::ChunkSize + 3); // Lives in an "even" chunk.
  EXPECT_TRUE(Even.intersects(Odd));
  EXPECT_EQ(Even.intersectCount(Odd), 1u);
}
