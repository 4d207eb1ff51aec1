//===- tests/DetectTest.cpp - detection unit tests ---------------------------===//

#include "detect/Classify.h"
#include "detect/CriticalSection.h"
#include "detect/Detector.h"

#include "trace/TraceBuilder.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace perfplay;

namespace {

/// Builds a two-thread trace where each thread runs one critical
/// section on the same lock, with bodies provided by callbacks.
template <typename F0, typename F1>
Trace pairTrace(F0 Body0, F1 Body1) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId Site = B.addSite("x.cc", "f", 1, 10);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu, Site);
  Body0(B, T0);
  B.endCs(T0);
  B.beginCs(T1, Mu, Site);
  Body1(B, T1);
  B.endCs(T1);
  return B.finish();
}

UlcpKind classifyFirstPair(const Trace &Tr) {
  CsIndex Index = CsIndex::build(Tr);
  return classifyPair(Index, Index.byGlobalId(0), Index.byGlobalId(1));
}

template <typename T> std::vector<T> toVector(Span<T> S) {
  return std::vector<T>(S.begin(), S.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// Critical-section extraction
//===----------------------------------------------------------------------===//

TEST(CsIndexTest, ExtractsSectionsWithSets) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.read(T, 10, 1);
        B.write(T, 11, 2);
        B.compute(T, 500);
      },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 10, 1); });
  CsIndex Index = CsIndex::build(Tr);
  ASSERT_EQ(Index.size(), 2u);
  const CriticalSection &C0 = Index.byGlobalId(0);
  EXPECT_EQ(toVector(Index.reads(C0)), (std::vector<AddrId>{10}));
  EXPECT_EQ(toVector(Index.writes(C0)), (std::vector<AddrId>{11}));
  EXPECT_EQ(C0.InnerCost, 500u);
  EXPECT_EQ(C0.Lock, 0u);
  EXPECT_EQ(C0.Depth, 0u);
  const CriticalSection &C1 = Index.byGlobalId(1);
  EXPECT_TRUE(Index.writes(C1).empty());
}

TEST(CsIndexTest, DeduplicatesAddresses) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.read(T, 10, 1);
        B.read(T, 10, 1);
        B.read(T, 10, 1);
      },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 10, 1); });
  CsIndex Index = CsIndex::build(Tr);
  EXPECT_EQ(Index.reads(Index.byGlobalId(0)).size(), 1u);
}

TEST(CsIndexTest, NestedAccessBelongsToBothSections) {
  TraceBuilder B;
  LockId Outer = B.addLock("outer");
  LockId Inner = B.addLock("inner");
  ThreadId T = B.addThread();
  B.beginCs(T, Outer);
  B.beginCs(T, Inner);
  B.read(T, 42, 0);
  B.compute(T, 100);
  B.endCs(T);
  B.endCs(T);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  ASSERT_EQ(Index.size(), 2u);
  // Global id 0 = outer (first acquire), 1 = inner.
  EXPECT_EQ(toVector(Index.reads(Index.byGlobalId(0))),
            (std::vector<AddrId>{42}));
  EXPECT_EQ(toVector(Index.reads(Index.byGlobalId(1))),
            (std::vector<AddrId>{42}));
  EXPECT_EQ(Index.byGlobalId(0).InnerCost, 100u);
  EXPECT_EQ(Index.byGlobalId(1).Depth, 1u);
}

TEST(CsIndexTest, PerLockOrderFollowsSchedule) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.read(T, 1, 0); },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 1, 0); });
  // Schedule says thread 1's section was granted first.
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[0] = {CsRef{1, 0}, CsRef{0, 0}};
  CsIndex Index = CsIndex::build(Tr);
  EXPECT_EQ(Index.sectionsOfLock(0), (std::vector<uint32_t>{1, 0}));
}

namespace {

/// Slot addresses and initial values of section \p Id.
std::vector<std::pair<AddrId, uint64_t>> slotsOf(const CsIndex &Index,
                                                 uint32_t Id) {
  const CriticalSection &Cs = Index.byGlobalId(Id);
  Span<AddrId> Addrs = Index.slots(Cs);
  Span<uint64_t> Values = Index.slotValues(Cs);
  std::vector<std::pair<AddrId, uint64_t>> Out;
  for (size_t I = 0; I != Addrs.size(); ++I)
    Out.emplace_back(Addrs[I], Values[I]);
  return Out;
}

using SlotList = std::vector<std::pair<AddrId, uint64_t>>;

} // namespace

TEST(CsIndexTest, LowerThreadReadSeedsOverEarlierHigherThreadWrite) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  // Thread 1 stores 3 to address 5 first in time (and in the grant
  // schedule); thread 0's later read of 7 still decides the seed.
  B.beginCs(T1, Mu);
  B.write(T1, 5, 3);
  B.endCs(T1);
  B.beginCs(T0, Mu);
  B.read(T0, 5, 7);
  B.endCs(T0);
  Trace Tr = B.finish();
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[Mu] = {CsRef{1, 0}, CsRef{0, 0}};
  CsIndex Index = CsIndex::build(Tr);
  EXPECT_EQ(slotsOf(Index, 0), (SlotList{{5, 7}}));
  EXPECT_EQ(slotsOf(Index, 1), (SlotList{{5, 7}}));
}

TEST(CsIndexTest, FirstAccessWriteSeedsZero) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 8, 5);
        B.read(T, 8, 5);
      },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 8, 9); });
  CsIndex Index = CsIndex::build(Tr);
  EXPECT_EQ(slotsOf(Index, 0), (SlotList{{8, 0}}));
  EXPECT_EQ(slotsOf(Index, 1), (SlotList{{8, 0}}));
}

TEST(CsIndexTest, ReadOutsideAnySectionSeeds) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T = B.addThread();
  B.read(T, 3, 11, /*AllowUnlocked=*/true);
  B.beginCs(T, Mu);
  B.write(T, 3, 1, WriteOpKind::Add);
  B.read(T, 4, 2);
  B.endCs(T);
  CsIndex Index = CsIndex::build(B.finish());
  EXPECT_EQ(slotsOf(Index, 0), (SlotList{{3, 11}, {4, 2}}));
}

TEST(CsIndexTest, OuterProgramIncludesNestedAccessesInOrder) {
  TraceBuilder B;
  LockId Outer = B.addLock("outer");
  LockId Inner = B.addLock("inner");
  ThreadId T = B.addThread();
  B.beginCs(T, Outer);
  B.read(T, 20, 0);
  B.beginCs(T, Inner);
  B.write(T, 10, 4, WriteOpKind::Add);
  B.endCs(T);
  B.write(T, 20, 6, WriteOpKind::Xor);
  B.endCs(T);
  CsIndex Index = CsIndex::build(B.finish());
  ASSERT_EQ(Index.size(), 2u);
  // Outer slots are {10, 20}: a program names them by position.
  const CriticalSection &O = Index.byGlobalId(0);
  EXPECT_EQ(toVector(Index.slots(O)), (std::vector<AddrId>{10, 20}));
  Span<MemOp> Prog = Index.program(O);
  ASSERT_EQ(Prog.size(), 3u);
  EXPECT_FALSE(Prog[0].IsWrite);
  EXPECT_EQ(Prog[0].Slot, 1u);
  EXPECT_TRUE(Prog[1].IsWrite);
  EXPECT_EQ(Prog[1].Slot, 0u);
  EXPECT_EQ(Prog[1].Op, WriteOpKind::Add);
  EXPECT_EQ(Prog[1].Operand, 4u);
  EXPECT_TRUE(Prog[2].IsWrite);
  EXPECT_EQ(Prog[2].Slot, 1u);
  EXPECT_EQ(Prog[2].Op, WriteOpKind::Xor);
  EXPECT_EQ(Prog[2].Operand, 6u);
  // The inner section holds only its own access.
  const CriticalSection &I = Index.byGlobalId(1);
  EXPECT_EQ(toVector(Index.slots(I)), (std::vector<AddrId>{10}));
  ASSERT_EQ(Index.program(I).size(), 1u);
  EXPECT_EQ(Index.program(I)[0].Slot, 0u);
  EXPECT_EQ(Index.program(I)[0].Operand, 4u);
}

TEST(CsIndexTest, SectionWithoutAccessesHasEmptyProgram) {
  Trace Tr = pairTrace([](TraceBuilder &B, ThreadId T) { B.compute(T, 5); },
                       [](TraceBuilder &B, ThreadId T) { B.read(T, 1, 0); });
  CsIndex Index = CsIndex::build(Tr);
  const CriticalSection &C0 = Index.byGlobalId(0);
  EXPECT_TRUE(Index.program(C0).empty());
  EXPECT_TRUE(Index.slots(C0).empty());
  EXPECT_EQ(Index.program(Index.byGlobalId(1)).size(), 1u);
}

//===----------------------------------------------------------------------===//
// Algorithm 1 classification
//===----------------------------------------------------------------------===//

TEST(ClassifyTest, NullLockWhenEitherSideEmpty) {
  Trace Tr = pairTrace([](TraceBuilder &, ThreadId) {},
                       [](TraceBuilder &B, ThreadId T) {
                         B.write(T, 5, 1);
                       });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::NullLock);
}

TEST(ClassifyTest, NullLockWhenBothEmpty) {
  Trace Tr = pairTrace([](TraceBuilder &, ThreadId) {},
                       [](TraceBuilder &, ThreadId) {});
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::NullLock);
}

TEST(ClassifyTest, ReadReadWhenNoWrites) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.read(T, 10, 7); },
      [](TraceBuilder &B, ThreadId T) {
        B.read(T, 10, 7);
        B.read(T, 11, 7);
      });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::ReadRead);
}

TEST(ClassifyTest, DisjointWriteOnDifferentAddresses) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.read(T, 10, 0);
        B.write(T, 10, 1);
      },
      [](TraceBuilder &B, ThreadId T) {
        B.read(T, 20, 0);
        B.write(T, 20, 2);
      });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::DisjointWrite);
}

TEST(ClassifyTest, ReadVsDisjointWriteIsDisjointWrite) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.read(T, 10, 0); },
      [](TraceBuilder &B, ThreadId T) { B.write(T, 20, 2); });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::DisjointWrite);
}

TEST(ClassifyTest, WriteReadConflictIsTrueContention) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 1); },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 10, 0); });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::TrueContention);
}

TEST(ClassifyTest, ConflictingStoresOfDifferentValues) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 1); },
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 2); });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::TrueContention);
}

TEST(ClassifyTest, RedundantStoresAreBenign) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 5); },
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 5); });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::Benign);
}

TEST(ClassifyTest, CommutativeAddsAreBenign) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 10, 3, WriteOpKind::Add);
      },
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 10, 4, WriteOpKind::Add);
      });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::Benign);
}

TEST(ClassifyTest, DisjointBitManipulationIsBenign) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 10, 0x01, WriteOpKind::Or);
      },
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 10, 0x10, WriteOpKind::Or);
      });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::Benign);
}

TEST(ClassifyTest, ReadOfConflictingStoreIsNotBenign) {
  // The second section's read observes a different value depending on
  // order: a real conflict.
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 9); },
      [](TraceBuilder &B, ThreadId T) {
        B.read(T, 10, 9);
        B.write(T, 11, 1);
      });
  EXPECT_EQ(classifyFirstPair(Tr), UlcpKind::TrueContention);
}

TEST(ClassifyTest, StaticSkipsReversedReplay) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 5); },
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 5); });
  CsIndex Index = CsIndex::build(Tr);
  // Statically conflicting; only the reversed replay rescues it.
  EXPECT_EQ(classifyPairStatic(Index, Index.byGlobalId(0),
                               Index.byGlobalId(1)),
            UlcpKind::TrueContention);
}

//===----------------------------------------------------------------------===//
// UlcpCounts
//===----------------------------------------------------------------------===//

TEST(UlcpCountsTest, AddAndTotals) {
  UlcpCounts C;
  C.add(UlcpKind::NullLock);
  C.add(UlcpKind::ReadRead);
  C.add(UlcpKind::ReadRead);
  C.add(UlcpKind::DisjointWrite);
  C.add(UlcpKind::Benign);
  C.add(UlcpKind::TrueContention);
  EXPECT_EQ(C.NullLock, 1u);
  EXPECT_EQ(C.ReadRead, 2u);
  EXPECT_EQ(C.DisjointWrite, 1u);
  EXPECT_EQ(C.Benign, 1u);
  EXPECT_EQ(C.TrueContention, 1u);
  EXPECT_EQ(C.totalUnnecessary(), 5u);
  EXPECT_EQ(C.total(), 6u);
}

TEST(UlcpKindTest, Names) {
  EXPECT_STREQ(ulcpKindName(UlcpKind::NullLock), "NL");
  EXPECT_STREQ(ulcpKindName(UlcpKind::ReadRead), "RR");
  EXPECT_STREQ(ulcpKindName(UlcpKind::DisjointWrite), "DW");
  EXPECT_STREQ(ulcpKindName(UlcpKind::Benign), "Benign");
  EXPECT_STREQ(ulcpKindName(UlcpKind::TrueContention), "TLCP");
  EXPECT_TRUE(isUnnecessary(UlcpKind::ReadRead));
  EXPECT_FALSE(isUnnecessary(UlcpKind::TrueContention));
}

//===----------------------------------------------------------------------===//
// Whole-trace detection
//===----------------------------------------------------------------------===//

namespace {

/// Three threads, K read-only sections each on one lock.
Trace multiReaderTrace(unsigned Threads, unsigned PerThread) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId Site = B.addSite("r.cc", "reader", 5, 15);
  std::vector<ThreadId> Ids;
  for (unsigned T = 0; T != Threads; ++T)
    Ids.push_back(B.addThread());
  for (unsigned T = 0; T != Threads; ++T)
    for (unsigned I = 0; I != PerThread; ++I) {
      B.compute(Ids[T], 100);
      B.beginCs(Ids[T], Mu, Site);
      B.read(Ids[T], 7, 0);
      B.endCs(Ids[T]);
    }
  return B.finish();
}

} // namespace

TEST(DetectorTest, AllCrossThreadPairCount) {
  Trace Tr = multiReaderTrace(2, 3);
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  // 3 sections per thread, cross-thread pairs = 3*3 = 9, all RR.
  EXPECT_EQ(R.Counts.ReadRead, 9u);
  EXPECT_EQ(R.Counts.total(), 9u);
}

TEST(DetectorTest, AdjacentModeCountsLess) {
  Trace Tr = multiReaderTrace(2, 3);
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AdjacentCrossThread;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_LE(R.Counts.total(), 5u);
}

TEST(DetectorTest, MaxPairDistanceBounds) {
  Trace Tr = multiReaderTrace(2, 4);
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Near;
  Near.PairMode = PairModeKind::AllCrossThread;
  Near.MaxPairDistance = 1;
  DetectOptions Far;
  Far.PairMode = PairModeKind::AllCrossThread;
  EXPECT_LT(detectUlcps(Tr, Index, Near).Counts.total(),
            detectUlcps(Tr, Index, Far).Counts.total());
}

TEST(DetectorTest, SameThreadPairsExcluded) {
  // One thread using the lock repeatedly: no pairs at all.
  Trace Tr = multiReaderTrace(1, 5);
  CsIndex Index = CsIndex::build(Tr);
  DetectResult R = detectUlcps(Tr, Index);
  EXPECT_EQ(R.Counts.total(), 0u);
}

TEST(DetectorTest, DifferentLocksNeverPaired) {
  TraceBuilder B;
  LockId A = B.addLock("a");
  LockId C = B.addLock("c");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, A);
  B.read(T0, 1, 0);
  B.endCs(T0);
  B.beginCs(T1, C);
  B.read(T1, 1, 0);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  EXPECT_EQ(detectUlcps(Tr, Index, Opts).Counts.total(), 0u);
}

TEST(DetectorTest, UnnecessaryPairsFilter) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 1); },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 10, 0); });
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_EQ(R.Pairs.size(), 1u);
  EXPECT_TRUE(R.unnecessaryPairs().empty());
}

TEST(DetectorTest, WithoutReversedReplayBenignCountsAsContention) {
  Trace Tr = pairTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 5); },
      [](TraceBuilder &B, ThreadId T) { B.write(T, 10, 5); });
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.UseReversedReplay = false;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_EQ(R.Counts.Benign, 0u);
  EXPECT_EQ(R.Counts.TrueContention, 1u);
}

//===----------------------------------------------------------------------===//
// Extended vocabulary: rwlock modes, trylock edges, condvar ordering
//===----------------------------------------------------------------------===//

TEST(CsIndexTest, SharedAndTryModesExtracted) {
  TraceBuilder B;
  LockId Rw = B.addLock("rw");
  ThreadId T0 = B.addThread();
  B.beginCsShared(T0, Rw);
  B.read(T0, 1, 0);
  B.endCs(T0);
  B.beginCsWrite(T0, Rw);
  B.write(T0, 1, 1);
  B.endCs(T0);
  B.tryCs(T0, Rw, InvalidId, /*Succeeded=*/false);
  B.tryCs(T0, Rw, InvalidId, /*Succeeded=*/true, AcquireMode::Shared);
  B.read(T0, 1, 0);
  B.endCs(T0);
  CsIndex Index = CsIndex::build(B.finish());
  // The failed try opens nothing: three sections, not four.
  ASSERT_EQ(Index.size(), 3u);
  EXPECT_EQ(Index.byGlobalId(0).Mode, AcquireMode::Shared);
  EXPECT_EQ(Index.byGlobalId(1).Mode, AcquireMode::Exclusive);
  EXPECT_EQ(Index.byGlobalId(2).Mode, AcquireMode::Shared);
  EXPECT_EQ(Index.tryFailEdges(), 1u);
  ASSERT_EQ(Index.tryFailPerLock().size(), 1u);
  EXPECT_EQ(Index.tryFailPerLock()[Rw], 1u);
}

// Two reader-side sections never exclude each other, so the pair is
// ULCP-free by the static rule alone — even when their memory
// footprints conflict, and with the reversed replay disabled.
TEST(DetectorTest, ReaderReaderPairsAreUlcpFreeStatically) {
  TraceBuilder B;
  LockId Rw = B.addLock("rw");
  CodeSiteId S = B.addSite("r.cc", "reader", 1, 5);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCsShared(T0, Rw, S);
  B.write(T0, 10, 1); // conflicting bodies on purpose
  B.endCs(T0);
  B.beginCsShared(T1, Rw, S);
  B.write(T1, 10, 2);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  EXPECT_EQ(classifyPairStatic(Index, Index.byGlobalId(0),
                               Index.byGlobalId(1)),
            UlcpKind::ReadRead);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.UseReversedReplay = false;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_EQ(R.Counts.ReadRead, 1u);
  EXPECT_EQ(R.Counts.TrueContention, 0u);
}

// A reader against a writer on the same rwlock is a real exclusion:
// the shared-mode shortcut must not fire, and a conflicting footprint
// classifies as contention like any mutex pair.
TEST(DetectorTest, ReaderWriterPairsStillConflict) {
  TraceBuilder B;
  LockId Rw = B.addLock("rw");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCsShared(T0, Rw);
  B.read(T0, 10, 0);
  B.endCs(T0);
  B.beginCsWrite(T1, Rw);
  B.write(T1, 10, 1);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_EQ(R.Counts.ReadRead, 0u);
  EXPECT_EQ(R.Counts.TrueContention, 1u);
}

// Failed trylocks witness contention on the lock without opening
// sections: they surface as per-lock edge counts and never perturb
// pair classification.
TEST(DetectorTest, FailedTrylocksCountEdgesWithoutSections) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  LockId Other = B.addLock("other");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.read(T0, 5, 0);
  B.endCs(T0);
  B.tryCs(T1, Mu, InvalidId, /*Succeeded=*/false);
  B.tryCs(T1, Mu, InvalidId, /*Succeeded=*/false);
  B.tryCs(T1, Mu, InvalidId, /*Succeeded=*/true);
  B.read(T1, 5, 0);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  ASSERT_EQ(Index.size(), 2u);
  DetectResult R = detectUlcps(Tr, Index);
  EXPECT_EQ(R.TryFailEdges, 2u);
  ASSERT_EQ(R.TryFailPerLock.size(), 2u);
  EXPECT_EQ(R.TryFailPerLock[Mu], 2u);
  EXPECT_EQ(R.TryFailPerLock[Other], 0u);
  // The successful try pairs like a blocking acquire: one RR pair.
  EXPECT_EQ(R.Counts.ReadRead, 1u);

  // Mutex-only traces keep the edge counters at zero.
  Trace Plain = pairTrace(
      [](TraceBuilder &PB, ThreadId T) { PB.read(T, 1, 0); },
      [](TraceBuilder &PB, ThreadId T) { PB.read(T, 1, 0); });
  DetectResult P = detectUlcps(Plain, CsIndex::build(Plain));
  EXPECT_EQ(P.TryFailEdges, 0u);
}

// A condvar wait/signal edge between two sections is a semantic
// ordering: even a body the reversed replay would call benign
// (identical stores) must stay TrueContention.
TEST(DetectorTest, CondvarEdgeForcesTrueContention) {
  auto build = [](bool WithCond) {
    TraceBuilder B;
    LockId Mu = B.addLock("mu");
    LockId Cv = B.addLock("cv");
    ThreadId T0 = B.addThread();
    ThreadId T1 = B.addThread();
    B.beginCs(T0, Mu);
    B.write(T0, 10, 5);
    if (WithCond)
      B.condSignal(T0, Cv);
    B.endCs(T0);
    B.beginCs(T1, Mu);
    B.write(T1, 10, 5);
    if (WithCond)
      B.condWait(T1, Cv);
    B.endCs(T1);
    return B.finish();
  };
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;

  Trace Plain = build(false);
  DetectResult P = detectUlcps(Plain, CsIndex::build(Plain), Opts);
  EXPECT_EQ(P.Counts.Benign, 1u); // identical stores commute

  Trace Cond = build(true);
  DetectResult C = detectUlcps(Cond, CsIndex::build(Cond), Opts);
  EXPECT_EQ(C.Counts.Benign, 0u);
  EXPECT_EQ(C.Counts.TrueContention, 1u);
}

//===----------------------------------------------------------------------===//
// Parameterized Algorithm-1 sweep: every combination of section shapes
//===----------------------------------------------------------------------===//

namespace {

enum class BodyShape {
  Empty,
  ReadX,
  WriteXStore5,
  WriteYStore5,
  AddX,
  ReadWriteX
};

void emitShape(TraceBuilder &B, ThreadId T, BodyShape S) {
  switch (S) {
  case BodyShape::Empty:
    break;
  case BodyShape::ReadX:
    B.read(T, 100, 5);
    break;
  case BodyShape::WriteXStore5:
    B.write(T, 100, 5);
    break;
  case BodyShape::WriteYStore5:
    B.write(T, 200, 5);
    break;
  case BodyShape::AddX:
    B.write(T, 100, 2, WriteOpKind::Add);
    break;
  case BodyShape::ReadWriteX:
    B.read(T, 100, 5);
    B.write(T, 100, 77);
    break;
  }
}

UlcpKind expectedKind(BodyShape A, BodyShape B) {
  auto isEmpty = [](BodyShape S) { return S == BodyShape::Empty; };
  auto writes = [](BodyShape S) { return S != BodyShape::Empty &&
                                         S != BodyShape::ReadX; };
  if (isEmpty(A) || isEmpty(B))
    return UlcpKind::NullLock;
  if (!writes(A) && !writes(B))
    return UlcpKind::ReadRead;
  // Disjoint iff one side only touches Y.
  bool AOnY = A == BodyShape::WriteYStore5;
  bool BOnY = B == BodyShape::WriteYStore5;
  if (AOnY != BOnY)
    return UlcpKind::DisjointWrite;
  if (AOnY && BOnY)
    return UlcpKind::Benign; // Same store value 5 on Y: redundant.
  // Both touch X with at least one write.  The memory image seeds X
  // with 5 only when the *first* dynamic access to X (thread 0's, i.e.
  // shape A's) is a read; a leading write leaves X unknown (0), making
  // "store 5" non-redundant in the reversed order.
  if (A == BodyShape::ReadX && B == BodyShape::WriteXStore5)
    return UlcpKind::Benign; // Store of the seeded value: redundant.
  if (A == BodyShape::WriteXStore5 && B == BodyShape::WriteXStore5)
    return UlcpKind::Benign; // Identical stores, no reads.
  if (A == BodyShape::AddX && B == BodyShape::AddX)
    return UlcpKind::Benign; // Adds commute.
  return UlcpKind::TrueContention;
}

class ClassifySweepTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

} // namespace

TEST_P(ClassifySweepTest, MatchesAlgorithmOne) {
  BodyShape A = static_cast<BodyShape>(std::get<0>(GetParam()));
  BodyShape Bs = static_cast<BodyShape>(std::get<1>(GetParam()));
  Trace Tr = pairTrace(
      [&](TraceBuilder &B, ThreadId T) { emitShape(B, T, A); },
      [&](TraceBuilder &B, ThreadId T) { emitShape(B, T, Bs); });
  EXPECT_EQ(classifyFirstPair(Tr), expectedKind(A, Bs))
      << "shapes " << std::get<0>(GetParam()) << ", "
      << std::get<1>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllShapePairs, ClassifySweepTest,
                         testing::Combine(testing::Range(0, 6),
                                          testing::Range(0, 6)));

//===----------------------------------------------------------------------===//
// The packed kernel against the trace-walking one
//===----------------------------------------------------------------------===//

namespace {

/// Classification as it was before sections were packed: read/write and
/// condvar sets as vectors gathered by walking the trace, a std::map
/// initial image, and a reversed replay that re-walks each section's
/// events.  Kept here as the reference the packed kernel must agree
/// with on every pair.
namespace walking {

using Image = std::map<AddrId, uint64_t>;

/// The first dynamic access per address, threads in order, seeds it
/// if that access is a read.
Image initialOf(const Trace &Tr) {
  Image Seeds;
  std::set<AddrId> Decided;
  for (const auto &T : Tr.Threads)
    for (const Event &E : T.Events)
      if ((E.Kind == EventKind::Read || E.Kind == EventKind::Write) &&
          Decided.insert(E.addr()).second && E.Kind == EventKind::Read)
        Seeds[E.addr()] = E.value();
  return Seeds;
}

struct Sets {
  std::vector<AddrId> Reads, Writes;
  std::vector<LockId> CondWaits, CondSignals;
};

template <typename T> void sortUnique(std::vector<T> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

const Event *eventsOf(const Trace &Tr, const CriticalSection &Cs) {
  return Tr.Threads[Cs.Ref.Thread].Events.data();
}

Sets setsOf(const Trace &Tr, const CriticalSection &Cs) {
  Sets S;
  const Event *Events = eventsOf(Tr, Cs);
  for (size_t I = Cs.AcquireIdx + 1; I != Cs.ReleaseIdx; ++I) {
    const Event &E = Events[I];
    if (E.Kind == EventKind::Read)
      S.Reads.push_back(E.addr());
    else if (E.Kind == EventKind::Write)
      S.Writes.push_back(E.addr());
    else if (E.Kind == EventKind::CondWait)
      S.CondWaits.push_back(E.lock());
    else if (E.Kind == EventKind::CondSignal ||
             E.Kind == EventKind::CondBroadcast)
      S.CondSignals.push_back(E.lock());
  }
  sortUnique(S.Reads);
  sortUnique(S.Writes);
  sortUnique(S.CondWaits);
  sortUnique(S.CondSignals);
  return S;
}

template <typename T>
bool intersects(const std::vector<T> &A, const std::vector<T> &B) {
  std::vector<T> Out;
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Out));
  return !Out.empty();
}

bool condOrdered(const Sets &A, const Sets &B) {
  return intersects(A.CondWaits, B.CondSignals) ||
         intersects(B.CondWaits, A.CondSignals);
}

UlcpKind classifyStatic(const CriticalSection &C1, const Sets &S1,
                        const CriticalSection &C2, const Sets &S2) {
  if (condOrdered(S1, S2))
    return UlcpKind::TrueContention;
  if (C1.Mode == AcquireMode::Shared && C2.Mode == AcquireMode::Shared)
    return UlcpKind::ReadRead;
  if ((S1.Reads.empty() && S1.Writes.empty()) ||
      (S2.Reads.empty() && S2.Writes.empty()))
    return UlcpKind::NullLock;
  if (S1.Writes.empty() && S2.Writes.empty())
    return UlcpKind::ReadRead;
  if (!intersects(S1.Reads, S2.Writes) && !intersects(S1.Writes, S2.Reads) &&
      !intersects(S1.Writes, S2.Writes))
    return UlcpKind::DisjointWrite;
  return UlcpKind::TrueContention;
}

void applyWrite(uint64_t &Cell, uint64_t Operand, WriteOpKind Op) {
  switch (Op) {
  case WriteOpKind::Store:
    Cell = Operand;
    break;
  case WriteOpKind::Add:
    Cell += Operand;
    break;
  case WriteOpKind::Or:
    Cell |= Operand;
    break;
  case WriteOpKind::And:
    Cell &= Operand;
    break;
  case WriteOpKind::Xor:
    Cell ^= Operand;
    break;
  }
}

/// Runs \p Cs's events over \p Values (indexed like \p Slots), passing
/// every read value to \p OnRead until it returns false.
template <typename OnReadFn>
bool replay(const Trace &Tr, const CriticalSection &Cs,
            const std::vector<AddrId> &Slots, std::vector<uint64_t> &Values,
            OnReadFn OnRead) {
  const Event *Events = eventsOf(Tr, Cs);
  for (size_t I = Cs.AcquireIdx + 1; I != Cs.ReleaseIdx; ++I) {
    const Event &E = Events[I];
    if (E.Kind != EventKind::Read && E.Kind != EventKind::Write)
      continue;
    uint64_t &Cell =
        Values[std::lower_bound(Slots.begin(), Slots.end(), E.addr()) -
               Slots.begin()];
    if (E.Kind == EventKind::Write)
      applyWrite(Cell, E.value(), E.Op);
    else if (!OnRead(Cell))
      return false;
  }
  return true;
}

bool isBenign(const Trace &Tr, const Image &Initial,
              const CriticalSection &A, const Sets &SA,
              const CriticalSection &B, const Sets &SB) {
  std::vector<AddrId> Slots;
  for (const std::vector<AddrId> *Set :
       {&SA.Reads, &SA.Writes, &SB.Reads, &SB.Writes})
    Slots.insert(Slots.end(), Set->begin(), Set->end());
  sortUnique(Slots);
  std::vector<uint64_t> Forward;
  for (AddrId Addr : Slots) {
    auto It = Initial.find(Addr);
    Forward.push_back(It == Initial.end() ? 0 : It->second);
  }
  std::vector<uint64_t> Reversed = Forward;

  std::vector<uint64_t> Reads;
  auto Record = [&Reads](uint64_t V) {
    Reads.push_back(V);
    return true;
  };
  replay(Tr, A, Slots, Forward, Record);
  const size_t NumAReads = Reads.size();
  replay(Tr, B, Slots, Forward, Record);

  size_t Next = NumAReads;
  auto Match = [&Reads, &Next](uint64_t V) { return Reads[Next++] == V; };
  if (!replay(Tr, B, Slots, Reversed, Match))
    return false;
  Next = 0;
  if (!replay(Tr, A, Slots, Reversed, Match))
    return false;
  return Forward == Reversed;
}

UlcpKind classify(const Trace &Tr, const Image &Initial,
                  const CriticalSection &C1, const Sets &S1,
                  const CriticalSection &C2, const Sets &S2) {
  UlcpKind Static = classifyStatic(C1, S1, C2, S2);
  if (Static != UlcpKind::TrueContention || condOrdered(S1, S2))
    return Static;
  return isBenign(Tr, Initial, C1, S1, C2, S2) ? UlcpKind::Benign
                                               : UlcpKind::TrueContention;
}

} // namespace walking

} // namespace

TEST(ClassifyTest, PackedKernelMatchesTraceWalkingKernelOnEveryApp) {
  std::vector<AppModel> Apps = allApps();
  Apps.insert(Apps.end(), syntheticApps().begin(), syntheticApps().end());
  UlcpCounts Seen;
  for (double Scale : {1.0, 4.0})
    for (const AppModel &App : Apps) {
      SCOPED_TRACE(App.Name + " @ scale " + std::to_string(Scale));
      Trace Tr = generateWorkload(App.Factory(4, Scale));
      CsIndex Index = CsIndex::build(Tr);
      const walking::Image Initial = walking::initialOf(Tr);
      std::vector<walking::Sets> Sets;
      for (const CriticalSection &Cs : Index.all())
        Sets.push_back(walking::setsOf(Tr, Cs));
      size_t Mismatches = 0;
      for (const std::vector<uint32_t> &Order : Index.lockOrders())
        for (size_t I = 0; I != Order.size(); ++I)
          for (size_t J = I + 1; J != Order.size(); ++J) {
            const CriticalSection &A = Index.byGlobalId(Order[I]);
            const CriticalSection &B = Index.byGlobalId(Order[J]);
            if (A.Ref.Thread == B.Ref.Thread)
              continue;
            const walking::Sets &SA = Sets[A.GlobalId];
            const walking::Sets &SB = Sets[B.GlobalId];
            UlcpKind Want = walking::classify(Tr, Initial, A, SA, B, SB);
            Seen.add(Want);
            Mismatches += classifyPair(Index, A, B) != Want;
            Mismatches += classifyPair(Index, B, A) != Want;
            UlcpKind WantStatic = walking::classifyStatic(A, SA, B, SB);
            Mismatches += classifyPairStatic(Index, A, B) != WantStatic;
            Mismatches += classifyPairStatic(Index, B, A) != WantStatic;
          }
      EXPECT_EQ(Mismatches, 0u);
    }
  // The sweep must drive every verdict.
  EXPECT_GT(Seen.NullLock, 0u);
  EXPECT_GT(Seen.ReadRead, 0u);
  EXPECT_GT(Seen.DisjointWrite, 0u);
  EXPECT_GT(Seen.Benign, 0u);
  EXPECT_GT(Seen.TrueContention, 0u);
}
