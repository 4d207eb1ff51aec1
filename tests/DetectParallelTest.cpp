//===- tests/DetectParallelTest.cpp - detection against its reference -------===//
//
// detectUlcps must give exactly what the paper's nested loop gives —
// every same-lock cross-thread pair classified on its own — on every
// workload shape: nested locks, MaxPairDistance, AdjacentCrossThread,
// static-only, all sixteen generated applications plus the synthetic
// mix, and sections with thousands of addresses.  Counts-only
// detection must be invisible in the results as well.
//
//===----------------------------------------------------------------------===//

#include "detect/Detector.h"
#include "detect/SectionKey.h"
#include "sim/Replayer.h"
#include "trace/TraceBuilder.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <string>

using namespace perfplay;

namespace {

void expectSameResult(const DetectResult &Base, const DetectResult &Got,
                      const std::string &Config) {
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

/// Detection as a plain nested loop over each lock's pairing order:
/// every same-lock cross-thread pair within the pair-mode cut,
/// classified by the unmemoized classifyPair (classifyPairStatic for a
/// static-only run).
DetectResult referenceDetect(const CsIndex &Index,
                             const DetectOptions &Opts) {
  DetectResult Out;
  for (const std::vector<uint32_t> &Order : Index.lockOrders())
    for (size_t I = 0; I != Order.size(); ++I) {
      const CriticalSection &A = Index.byGlobalId(Order[I]);
      for (size_t J = I + 1; J != Order.size(); ++J) {
        if (Opts.PairMode == PairModeKind::AdjacentCrossThread && J > I + 1)
          break;
        if (Opts.MaxPairDistance != 0 && J - I > Opts.MaxPairDistance)
          break;
        const CriticalSection &B = Index.byGlobalId(Order[J]);
        if (B.Ref.Thread == A.Ref.Thread)
          continue;
        const UlcpKind Kind = Opts.UseReversedReplay
                                  ? classifyPair(Index, A, B)
                                  : classifyPairStatic(Index, A, B);
        Out.Counts.add(Kind);
        Out.Pairs.push_back(UlcpPair{A.GlobalId, B.GlobalId, Kind});
      }
    }
  return Out;
}

/// detectUlcps must reproduce the reference pair for pair and classify
/// every pair exactly once.  Returns the number of pairs.
uint64_t checkAgainstReference(const Trace &Tr, const CsIndex &Index,
                               const DetectOptions &Opts,
                               const std::string &Config) {
  DetectResult Want = referenceDetect(Index, Opts);
  DetectResult Got = detectUlcps(Tr, Index, Opts);
  expectSameResult(Want, Got, Config);
  EXPECT_EQ(Got.Stats.NumClassified, Got.Counts.total()) << Config;
  EXPECT_EQ(Got.Stats.NumSectionKeys, 0u) << Config;
  return Want.Counts.total();
}

/// \p Tr must yield pairs, and detection must match the reference.
void checkReference(const Trace &Tr, const DetectOptions &Opts) {
  EXPECT_GT(checkAgainstReference(Tr, CsIndex::build(Tr), Opts, "reference"),
            0u);
}

} // namespace

TEST(DetectParallelTest, MixedTraceAllCrossThread) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  checkReference(mixedTrace(), Opts);
}

TEST(DetectParallelTest, MixedTraceAdjacent) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AdjacentCrossThread;
  checkReference(mixedTrace(), Opts);
}

TEST(DetectParallelTest, MixedTraceMaxPairDistance) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.MaxPairDistance = 2;
  checkReference(mixedTrace(), Opts);
}

TEST(DetectParallelTest, MixedTraceStaticOnly) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.UseReversedReplay = false;
  checkReference(mixedTrace(), Opts);
}

TEST(DetectParallelTest, GeneratedWorkloadParity) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  checkReference(generatedTrace(), Opts);
}

TEST(DetectParallelTest, WideSectionVerdicts) {
  // The only detection corpus with wide read/write sets: 2,000-4,000
  // addresses per section, so the balanced merge walks two interleaved
  // 2,000-address write sets end to end and the one-write section
  // against a 2,000-write one takes the galloping path.  Sections A, C
  // on T0 and B, D on T1 give four cross-thread pairs:
  //  - A-B: interleaved even/odd writes over one range (DisjointWrite);
  //  - A-D, C-B: disjoint ranges (DisjointWrite);
  //  - C-D: D's one write lands inside C's 2,000 writes with another
  //    value, so the order is observable (TrueContention).
  TraceBuilder B;
  LockId Mu = B.addLock("wide");
  CodeSiteId Site = B.addSite("w.cc", "wide", 1, 9);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();

  B.beginCs(T0, Mu, Site); // A
  for (AddrId A = 0; A != 4000; A += 2)
    B.write(T0, A, 1);
  B.endCs(T0);
  B.beginCs(T1, Mu, Site); // B
  for (AddrId A = 1; A != 4001; A += 2)
    B.write(T1, A, 1);
  B.endCs(T1);
  B.beginCs(T0, Mu, Site); // C
  for (AddrId A = 10000; A != 12000; ++A)
    B.write(T0, A, 2);
  B.endCs(T0);
  B.beginCs(T1, Mu, Site); // D
  B.write(T1, 11500, 3);
  for (AddrId A = 20000; A != 22000; ++A)
    B.read(T1, A, 0);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);

  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_EQ(R.Counts.total(), 4u);
  EXPECT_EQ(R.Counts.DisjointWrite, 3u);
  EXPECT_EQ(R.Counts.TrueContention, 1u);
  EXPECT_EQ(checkAgainstReference(Tr, Index, Opts, "wide"), 4u);
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

TEST(DetectParallelTest, CommutingAddsClassifyEveryPair) {
  // 2 threads x 6 identical sections: one section key, yet every
  // dynamic pair is classified on its own.
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
  DetectResult R = detectUlcps(Tr, Index, Opts);
  EXPECT_EQ(internSectionKeys(Tr, Index).NumKeys, 1u);
  EXPECT_GT(R.Counts.total(), 1u);
  EXPECT_EQ(R.Stats.NumClassified, R.Counts.total());
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

// The reference sweep: every application shape the generators produce
// — all sixteen Table 1 applications plus the synthetic
// rwlock/trylock/condvar mix — in both pair modes and with a pair
// distance cut.
const std::vector<AppModel> &sweepApps() {
  static const std::vector<AppModel> Apps = [] {
    std::vector<AppModel> All = allApps();
    All.insert(All.end(), syntheticApps().begin(), syntheticApps().end());
    return All;
  }();
  return Apps;
}

class DetectAppSweepTest : public testing::TestWithParam<size_t> {};

TEST_P(DetectAppSweepTest, MatchesReference) {
  const AppModel &App = sweepApps()[GetParam()];
  Trace Tr = generateWorkload(App.Factory(4, 0.1));
  recordGrantSchedule(Tr, 42);
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Adjacent;
  Adjacent.PairMode = PairModeKind::AdjacentCrossThread;
  DetectOptions All;
  All.PairMode = PairModeKind::AllCrossThread;
  DetectOptions Near = All;
  Near.MaxPairDistance = 4;
  checkAgainstReference(Tr, Index, Adjacent, App.Name + " adjacent");
  const uint64_t AllPairs =
      checkAgainstReference(Tr, Index, All, App.Name + " all");
  checkAgainstReference(Tr, Index, Near, App.Name + " distance=4");
  // blackscholes takes no lock at all (Table 1); every other
  // application yields pairs.
  if (Index.size() != 0)
    EXPECT_GT(AllPairs, 0u) << App.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, DetectAppSweepTest,
    testing::Range<size_t>(0, sweepApps().size()),
    [](const testing::TestParamInfo<size_t> &Info) {
      return sweepApps()[Info.param].Name;
    });
