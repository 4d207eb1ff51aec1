//===- tests/DetectParallelTest.cpp - detection performance-mode parity -----===//
//
// The detector's performance modes (key-pair dedup, streaming sinks,
// counts-only, the density-routed set-intersection kernels) must be
// invisible in the results: Pairs and Counts bit-identical to the
// dedup-off baseline on every workload shape — nested locks,
// MaxPairDistance, AdjacentCrossThread, generated applications.
//
//===----------------------------------------------------------------------===//

#include "detect/Detector.h"
#include "detect/SectionKey.h"
#include "sim/Replayer.h"
#include "support/SetOps.h"
#include "trace/TraceBuilder.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

using namespace perfplay;

namespace {

void expectSameResult(const DetectResult &Base, const DetectResult &Got,
                      const char *Config) {
  EXPECT_EQ(Base.Counts.NullLock, Got.Counts.NullLock) << Config;
  EXPECT_EQ(Base.Counts.ReadRead, Got.Counts.ReadRead) << Config;
  EXPECT_EQ(Base.Counts.DisjointWrite, Got.Counts.DisjointWrite) << Config;
  EXPECT_EQ(Base.Counts.Benign, Got.Counts.Benign) << Config;
  EXPECT_EQ(Base.Counts.TrueContention, Got.Counts.TrueContention)
      << Config;
  ASSERT_EQ(Base.Pairs.size(), Got.Pairs.size()) << Config;
  for (size_t I = 0; I != Base.Pairs.size(); ++I) {
    EXPECT_EQ(Base.Pairs[I].First, Got.Pairs[I].First)
        << Config << " pair " << I;
    EXPECT_EQ(Base.Pairs[I].Second, Got.Pairs[I].Second)
        << Config << " pair " << I;
    EXPECT_EQ(Base.Pairs[I].Kind, Got.Pairs[I].Kind)
        << Config << " pair " << I;
  }
}

/// A mixed workload: three threads, an outer/inner nested lock pair
/// plus a hot lock whose sections cycle through every classification
/// (redundant stores, commutative adds, read-only, disjoint writes,
/// store-vs-read conflicts).
Trace mixedTrace() {
  TraceBuilder B;
  LockId Hot = B.addLock("hot");
  LockId Outer = B.addLock("outer");
  LockId Inner = B.addLock("inner");
  CodeSiteId Site = B.addSite("m.cc", "mixed", 1, 99);
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread(),
                               B.addThread()};

  for (unsigned Round = 0; Round != 4; ++Round)
    for (unsigned T = 0; T != Ids.size(); ++T) {
      ThreadId Id = Ids[T];
      B.compute(Id, 10 + Round);
      B.beginCs(Id, Hot, Site);
      switch ((Round + T) % 5) {
      case 0:
        B.write(Id, 1, 42); // Redundant store.
        break;
      case 1:
        B.write(Id, 2, 3, WriteOpKind::Add); // Commutative.
        break;
      case 2:
        B.read(Id, 3, 0); // Read-only.
        break;
      case 3:
        B.write(Id, 100 + T, 7); // Disjoint per-thread.
        break;
      default:
        B.write(Id, 1, 50 + T); // Conflicting stores.
        B.read(Id, 2, 0);
        break;
      }
      B.endCs(Id);
      // Nested sections: accesses belong to outer and inner.
      B.beginCs(Id, Outer, Site);
      B.write(Id, 5, 1, WriteOpKind::Or);
      B.beginCs(Id, Inner);
      B.read(Id, 6, 9);
      B.endCs(Id);
      B.endCs(Id);
    }
  return B.finish();
}

Trace generatedTrace() {
  Trace Tr = generateWorkload(makeMysql(4, 0.3));
  recordGrantSchedule(Tr, 42);
  return Tr;
}

/// The dedup-off run classifies every pair on its own and is the
/// oracle; dedup must reproduce it and classify no more pairs.
void checkAllConfigs(const Trace &Tr, DetectOptions Opts) {
  CsIndex Index = CsIndex::build(Tr);
  Opts.DedupPairs = false;
  DetectResult Oracle = detectUlcps(Tr, Index, Opts);
  ASSERT_GT(Oracle.Counts.total(), 0u);
  Opts.DedupPairs = true;
  DetectResult Dedup = detectUlcps(Tr, Index, Opts);
  expectSameResult(Oracle, Dedup, "dedup");
  EXPECT_EQ(Oracle.Stats.NumClassified, Oracle.Counts.total());
  EXPECT_LE(Dedup.Stats.NumClassified, Oracle.Stats.NumClassified);
}

/// Kernel-level parity of Algorithm 1's set intersections: for every
/// ordered section pair of \p Index, the sorted merge and the chunked
/// bitmap answer each read/write intersection alike, and
/// classifyPairStatic gives the same verdict with bitmap mirrors as
/// without them (where only the sorted merge can run).  Returns the
/// number of pairs checked.
size_t checkSetKernels(const CsIndex &Index) {
  std::vector<CriticalSection> Mirrored, Plain;
  for (const CriticalSection &Cs : Index.all()) {
    Mirrored.push_back(Cs);
    Mirrored.back().buildSets();
    Plain.push_back(Cs);
    Plain.back().ReadSet = AddrSet();
    Plain.back().WriteSet = AddrSet();
  }
  size_t Checked = 0;
  for (size_t I = 0; I != Mirrored.size(); ++I)
    for (size_t J = 0; J != Mirrored.size(); ++J) {
      const CriticalSection &A = Mirrored[I];
      const CriticalSection &B = Mirrored[J];
      EXPECT_EQ(sortedIntersects(A.Reads, B.Writes),
                A.ReadSet.intersects(B.WriteSet))
          << I << " reads vs " << J << " writes";
      EXPECT_EQ(sortedIntersects(A.Writes, B.Writes),
                A.WriteSet.intersects(B.WriteSet))
          << I << " writes vs " << J << " writes";
      EXPECT_EQ(classifyPairStatic(A, B),
                classifyPairStatic(Plain[I], Plain[J]))
          << I << " vs " << J;
      ++Checked;
    }
  return Checked;
}

} // namespace

TEST(DetectParallelTest, MixedTraceAllCrossThread) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  checkAllConfigs(mixedTrace(), Opts);
}

TEST(DetectParallelTest, MixedTraceAdjacent) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AdjacentCrossThread;
  checkAllConfigs(mixedTrace(), Opts);
}

TEST(DetectParallelTest, MixedTraceMaxPairDistance) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.MaxPairDistance = 2;
  checkAllConfigs(mixedTrace(), Opts);
}

TEST(DetectParallelTest, MixedTraceStaticOnly) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.UseReversedReplay = false;
  checkAllConfigs(mixedTrace(), Opts);
}

TEST(DetectParallelTest, GeneratedWorkloadParity) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  checkAllConfigs(generatedTrace(), Opts);
}

TEST(DetectParallelTest, TinySectionsSkipBitmapMirrors) {
  // Sections at or below TinySetMax in both dimensions never derive
  // AddrSets (Algorithm 1 routes them to the sorted merge anyway).
  CsIndex Index = CsIndex::build(mixedTrace());
  size_t WithMirrors = 0;
  for (uint32_t I = 0; I != Index.size(); ++I) {
    const CriticalSection &Cs = Index.byGlobalId(I);
    ASSERT_LE(Cs.Reads.size(), CriticalSection::TinySetMax);
    ASSERT_LE(Cs.Writes.size(), CriticalSection::TinySetMax);
    if (Cs.ReadSet.size() + Cs.WriteSet.size() != 0)
      ++WithMirrors;
  }
  EXPECT_EQ(WithMirrors, 0u);
}

TEST(DetectParallelTest, SetKernelsAgreeOnMixedAndGenerated) {
  // The word-parallel AddrSet intersection must be invisible in the
  // results: with mirrors forced onto every section (tiny ones
  // included), the bitmap and the sorted merge agree on every pair of
  // the lock-heavy mixed workload and of a generated application.
  for (const Trace &Tr : {mixedTrace(), generatedTrace()})
    EXPECT_GT(checkSetKernels(CsIndex::build(Tr)), 0u);
}

TEST(DetectParallelTest, SetKernelsAgreeOnWideSections) {
  // Wide sections (past any small-block threshold) with every static
  // verdict represented: interleaved disjoint writes, overlapping
  // writes, read-only scans.  Bitmap and sorted merge must agree per
  // pair.
  TraceBuilder B;
  LockId Mu = B.addLock("wide");
  CodeSiteId Site = B.addSite("w.cc", "wide", 1, 9);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();

  // Pairwise-disjoint interleaved writes over one dense range.
  B.beginCs(T0, Mu, Site);
  for (AddrId A = 0; A != 4000; A += 2)
    B.write(T0, A, 1);
  B.endCs(T0);
  B.beginCs(T1, Mu, Site);
  for (AddrId A = 1; A != 4001; A += 2)
    B.write(T1, A, 1);
  B.endCs(T1);
  // A conflicting wide pair: same range, one shared address.
  B.beginCs(T0, Mu, Site);
  for (AddrId A = 10000; A != 12000; ++A)
    B.write(T0, A, 2);
  B.endCs(T0);
  B.beginCs(T1, Mu, Site);
  B.write(T1, 11500, 3);
  for (AddrId A = 20000; A != 22000; ++A)
    B.read(T1, A, 0);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);

  // Every section here is wider than TinySetMax in reads or writes,
  // so all of them carry bitmap mirrors.
  for (uint32_t I = 0; I != Index.size(); ++I)
    EXPECT_TRUE(Index.byGlobalId(I).setsBuilt()) << I;
  EXPECT_EQ(checkSetKernels(Index), Index.size() * Index.size());

  // The corpus really exercises both outcomes.
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_GT(R.Counts.DisjointWrite, 0u);
  EXPECT_GT(R.Counts.TrueContention, 0u);
}

TEST(DetectParallelTest, SinkStreamsPairsInSerialOrder) {
  Trace Tr = mixedTrace();
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Base;
  Base.PairMode = PairModeKind::AllCrossThread;
  DetectResult Serial = detectUlcps(Tr, Index, Base);

  DetectOptions Opts = Base;
  std::vector<UlcpPair> Streamed;
  Opts.Sink = [&](const UlcpPair &P) { Streamed.push_back(P); };
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_TRUE(R.Pairs.empty()) << "sink mode must not materialize";
  ASSERT_EQ(Streamed.size(), Serial.Pairs.size());
  for (size_t I = 0; I != Streamed.size(); ++I) {
    EXPECT_EQ(Streamed[I].First, Serial.Pairs[I].First) << I;
    EXPECT_EQ(Streamed[I].Second, Serial.Pairs[I].Second) << I;
    EXPECT_EQ(Streamed[I].Kind, Serial.Pairs[I].Kind) << I;
  }
  EXPECT_EQ(R.Counts.total(), Serial.Counts.total());
}

TEST(DetectParallelTest, CountsOnlySkipsPairVector) {
  Trace Tr = mixedTrace();
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult Full = detectUlcps(Tr, Index, Opts);
  Opts.CountsOnly = true;
  DetectResult Counted = detectUlcps(Tr, Index, Opts);
  EXPECT_TRUE(Counted.Pairs.empty());
  EXPECT_EQ(Counted.Counts.total(), Full.Counts.total());
  EXPECT_EQ(Counted.Counts.TrueContention, Full.Counts.TrueContention);
}

TEST(DetectParallelTest, DedupClassifiesEachKeyPairOnce) {
  // 2 threads x 6 identical sections: one key, one classification,
  // many dynamic pairs.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId Site = B.addSite("k.cc", "inc", 1, 5);
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread()};
  for (unsigned I = 0; I != 6; ++I)
    for (ThreadId T : Ids) {
      B.beginCs(T, Mu, Site);
      B.write(T, 9, 1, WriteOpKind::Add);
      B.endCs(T);
    }
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);

  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.DedupPairs = true;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_EQ(R.Stats.NumSectionKeys, 1u);
  EXPECT_EQ(R.Stats.NumClassified, 1u);
  EXPECT_GT(R.Counts.total(), 1u);
  EXPECT_EQ(R.Counts.Benign, R.Counts.total()); // Adds commute.
}

TEST(DetectParallelTest, SectionKeysSeparateDistinctBodies) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId Site = B.addSite("k.cc", "f", 1, 5);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu, Site);
  B.write(T0, 1, 5);
  B.endCs(T0);
  B.beginCs(T0, Mu, Site);
  B.write(T0, 1, 6); // Different operand: different key.
  B.endCs(T0);
  B.beginCs(T1, Mu, Site);
  B.read(T1, 1, 5); // Read value excluded: same key as next.
  B.endCs(T1);
  B.beginCs(T1, Mu, Site);
  B.read(T1, 1, 99);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  SectionKeyTable Keys = internSectionKeys(Tr, Index);
  EXPECT_EQ(Keys.NumKeys, 3u);
  EXPECT_NE(Keys.KeyOf[0], Keys.KeyOf[1]);
  EXPECT_EQ(Keys.KeyOf[2], Keys.KeyOf[3]);
}
