//===- tests/DebugTest.cpp - Equation 1/2 and Algorithm 2 tests -------------===//

#include "debug/Fusion.h"
#include "debug/Report.h"
#include "debug/UlcpDelta.h"

#include "core/AnalysisSession.h"
#include "detect/Detector.h"
#include "sim/Replayer.h"
#include "trace/TraceBuilder.h"
#include "transform/Transform.h"
#include "workloads/Apps.h"

#include <gtest/gtest.h>

using namespace perfplay;

//===----------------------------------------------------------------------===//
// Equation 1
//===----------------------------------------------------------------------===//

namespace {

ReplayResult resultWithSections(std::vector<CsTiming> Sections) {
  ReplayResult R;
  R.Sections = std::move(Sections);
  return R;
}

CsTiming timing(TimeNs Pre, TimeNs Arr, TimeNs Grant, TimeNs Rel,
                TimeNs Succ) {
  CsTiming T;
  T.PrecursorStart = Pre;
  T.Arrival = Arr;
  T.Granted = Grant;
  T.Released = Rel;
  T.SuccessorEnd = Succ;
  return T;
}

} // namespace

TEST(UlcpDeltaTest, TimestampsExtracted) {
  ReplayResult R = resultWithSections({
      timing(100, 150, 200, 300, 400),
      timing(120, 160, 300, 500, 600),
  });
  UlcpPair P{0, 1, UlcpKind::ReadRead};
  UlcpTimestamps TS = ulcpTimestamps(R, P);
  EXPECT_EQ(TS.Time1, 100u);
  EXPECT_EQ(TS.Time2, 400u);
  EXPECT_EQ(TS.Time3, 600u);
}

TEST(UlcpDeltaTest, Figure10CaseB) {
  // Case (b): both successor segments shrink; improvement comes from
  // dMAX{Time2,Time3} with Time3 the max in both runs.
  ReplayResult Before = resultWithSections({
      timing(0, 10, 20, 30, 100),
      timing(0, 10, 30, 60, 200),
  });
  ReplayResult After = resultWithSections({
      timing(0, 10, 20, 30, 100),
      timing(0, 10, 15, 35, 140),
  });
  UlcpPair P{0, 1, UlcpKind::ReadRead};
  EXPECT_EQ(ulcpImprovement(Before, After, P), 60);
}

TEST(UlcpDeltaTest, Figure10CaseC) {
  // Case (c): after optimization the first section's successor ends
  // last; the improvement is dTime2 - dTime1.
  ReplayResult Before = resultWithSections({
      timing(0, 10, 20, 40, 300),
      timing(0, 30, 40, 65, 250),
  });
  ReplayResult After = resultWithSections({
      timing(0, 10, 12, 32, 260),
      timing(0, 11, 11, 31, 200),
  });
  UlcpPair P{0, 1, UlcpKind::ReadRead};
  EXPECT_EQ(ulcpImprovement(Before, After, P), 40);
}

TEST(UlcpDeltaTest, NonContendingPairContributesNothing) {
  // B ran long after A released: no serialization to attribute even if
  // the program as a whole got faster.
  ReplayResult Before = resultWithSections({
      timing(0, 10, 20, 30, 100),
      timing(0, 500, 500, 520, 600),
  });
  ReplayResult After = resultWithSections({
      timing(0, 10, 10, 20, 80),
      timing(0, 400, 400, 420, 480),
  });
  UlcpPair P{0, 1, UlcpKind::ReadRead};
  EXPECT_EQ(ulcpImprovement(Before, After, P), 0);
}

TEST(UlcpDeltaTest, PrecursorShiftSubtracted) {
  // Everything shifted 100 earlier, including Time1: net zero.
  ReplayResult Before = resultWithSections({
      timing(200, 210, 220, 230, 400),
      timing(200, 210, 230, 260, 420),
  });
  ReplayResult After = resultWithSections({
      timing(100, 110, 120, 130, 300),
      timing(100, 110, 130, 160, 320),
  });
  UlcpPair P{0, 1, UlcpKind::ReadRead};
  EXPECT_EQ(ulcpImprovement(Before, After, P), 0);
}

TEST(UlcpDeltaTest, NegativeClampedToZero) {
  ReplayResult Before = resultWithSections({
      timing(0, 0, 0, 10, 50),
      timing(0, 0, 10, 20, 60),
  });
  ReplayResult After = resultWithSections({
      timing(0, 0, 0, 10, 90),
      timing(0, 0, 10, 20, 100),
  });
  UlcpPair P{0, 1, UlcpKind::ReadRead};
  EXPECT_EQ(ulcpImprovement(Before, After, P), 0);
}

TEST(UlcpDeltaTest, BatchMatchesSingle) {
  ReplayResult Before = resultWithSections({
      timing(0, 10, 20, 30, 100),
      timing(0, 10, 30, 60, 200),
  });
  ReplayResult After = resultWithSections({
      timing(0, 10, 20, 30, 100),
      timing(0, 10, 15, 35, 140),
  });
  std::vector<UlcpPair> Pairs = {{0, 1, UlcpKind::ReadRead}};
  std::vector<int64_t> Deltas = ulcpImprovements(Before, After, Pairs);
  ASSERT_EQ(Deltas.size(), 1u);
  EXPECT_EQ(Deltas[0], ulcpImprovement(Before, After, Pairs[0]));
}

//===----------------------------------------------------------------------===//
// Algorithm 2: fusion
//===----------------------------------------------------------------------===//

namespace {

CodeRegion region(const char *File, uint32_t Begin, uint32_t End) {
  CodeRegion R;
  R.File = File;
  R.Lines = LineInterval(Begin, End);
  return R;
}

FusedUlcp fused(CodeRegion CR1, CodeRegion CR2, int64_t Delta) {
  FusedUlcp F;
  F.CR1 = std::move(CR1);
  F.CR2 = std::move(CR2);
  F.DeltaNs = Delta;
  F.PairCount = 1;
  return F;
}

/// Algorithm 2 over (pair, improvement) lists, through the same
/// UlcpSeeds aggregation buildReport uses.
std::vector<FusedUlcp> fuseUlcps(const Trace &Tr, const CsIndex &Index,
                                 const std::vector<UlcpPair> &Pairs,
                                 const std::vector<int64_t> &Deltas) {
  UlcpSeeds Seeds(Tr, Index);
  for (size_t I = 0; I != Pairs.size(); ++I)
    Seeds.add(Pairs[I], Deltas.at(I));
  return Seeds.fuse();
}

} // namespace

TEST(FusionTest, RegionOverlapRules) {
  EXPECT_TRUE(regionsOverlap(region("a.cc", 1, 10), region("a.cc", 5, 20)));
  EXPECT_FALSE(regionsOverlap(region("a.cc", 1, 10), region("b.cc", 5, 20)));
  EXPECT_FALSE(
      regionsOverlap(region("a.cc", 1, 10), region("a.cc", 11, 20)));
}

TEST(FusionTest, ConflateUnitesLines) {
  CodeRegion C =
      conflateRegions(region("a.cc", 1, 10), region("a.cc", 5, 20));
  EXPECT_EQ(C.File, "a.cc");
  EXPECT_EQ(C.Lines, LineInterval(1, 20));
}

TEST(FusionTest, MatchingOrientationMerges) {
  FusedUlcp A = fused(region("a.cc", 1, 10), region("b.cc", 1, 10), 100);
  FusedUlcp B = fused(region("a.cc", 5, 15), region("b.cc", 2, 8), 50);
  ASSERT_TRUE(fuseUlcpGroups(A, B));
  EXPECT_EQ(A.DeltaNs, 150);
  EXPECT_EQ(A.PairCount, 2u);
  EXPECT_EQ(A.CR1.Lines, LineInterval(1, 15));
  EXPECT_EQ(A.CR2.Lines, LineInterval(1, 10));
}

TEST(FusionTest, SwappedOrientationMerges) {
  // Algorithm 2 lines 5-8: CR1 matches the other pair's CR2.
  FusedUlcp A = fused(region("a.cc", 1, 10), region("b.cc", 1, 10), 100);
  FusedUlcp B = fused(region("b.cc", 5, 12), region("a.cc", 3, 9), 25);
  ASSERT_TRUE(fuseUlcpGroups(A, B));
  EXPECT_EQ(A.DeltaNs, 125);
  EXPECT_EQ(A.CR1.Lines, LineInterval(1, 10));
  EXPECT_EQ(A.CR2.Lines, LineInterval(1, 12));
}

TEST(FusionTest, DisjointRegionsDoNotMerge) {
  FusedUlcp A = fused(region("a.cc", 1, 10), region("b.cc", 1, 10), 100);
  FusedUlcp B = fused(region("a.cc", 50, 60), region("b.cc", 1, 10), 25);
  EXPECT_FALSE(fuseUlcpGroups(A, B));
  EXPECT_EQ(A.DeltaNs, 100);
}

TEST(FusionTest, FixpointMergesTransitively) {
  // G1 [1,10] and G3 [20,30] only merge after G2 [8,22] widens G1.
  Trace Tr; // Unused by fuseUlcps beyond region lookup: build manually.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId S1 = B.addSite("a.cc", "f", 1, 10);
  CodeSiteId S2 = B.addSite("a.cc", "f", 8, 22);
  CodeSiteId S3 = B.addSite("a.cc", "f", 20, 30);
  CodeSiteId SB = B.addSite("b.cc", "g", 1, 10);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  auto cs = [&](ThreadId T, CodeSiteId Site) {
    B.beginCs(T, Mu, Site);
    B.read(T, 1, 0);
    B.endCs(T);
  };
  cs(T0, S1);
  cs(T0, S2);
  cs(T0, S3);
  cs(T1, SB);
  Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  // Pairs: (S1,SB), (S3,SB), (S2,SB) — the S2 pair arrives last and
  // bridges the other two.
  std::vector<UlcpPair> Pairs = {{0, 3, UlcpKind::ReadRead},
                                 {2, 3, UlcpKind::ReadRead},
                                 {1, 3, UlcpKind::ReadRead}};
  std::vector<int64_t> Deltas = {10, 20, 30};
  std::vector<FusedUlcp> Groups = fuseUlcps(Tr, Index, Pairs, Deltas);
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_EQ(Groups[0].DeltaNs, 60);
  EXPECT_EQ(Groups[0].PairCount, 3u);
  EXPECT_EQ(Groups[0].CR1.Lines, LineInterval(1, 30));
}

TEST(FusionTest, UnknownSitesStayPerLock) {
  TraceBuilder B;
  LockId MuA = B.addLock("a");
  LockId MuB = B.addLock("b");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  auto cs = [&](ThreadId T, LockId L) {
    B.beginCs(T, L);
    B.read(T, 1, 0);
    B.endCs(T);
  };
  cs(T0, MuA);
  cs(T1, MuA);
  cs(T0, MuB);
  cs(T1, MuB);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  // Pair on lock a (global ids 0, 2) and pair on lock b (1, 3).
  std::vector<UlcpPair> Pairs = {{0, 2, UlcpKind::ReadRead},
                                 {1, 3, UlcpKind::ReadRead}};
  std::vector<int64_t> Deltas = {5, 5};
  std::vector<FusedUlcp> Groups = fuseUlcps(Tr, Index, Pairs, Deltas);
  EXPECT_EQ(Groups.size(), 2u) << "different locks must not fuse";
}

namespace {

/// The oracle: Algorithm 2 run pair by pair, each raw pair first-fit
/// into the groups so far, then fused to a fixpoint.
std::vector<FusedUlcp> perPairFusion(const Trace &Tr, const CsIndex &Index,
                                     const std::vector<UlcpPair> &Pairs,
                                     const std::vector<int64_t> &Deltas) {
  std::vector<FusedUlcp> Groups;
  for (size_t I = 0; I != Pairs.size(); ++I) {
    FusedUlcp Fresh;
    Fresh.CR1 = regionOfSection(Tr, Index.byGlobalId(Pairs[I].First));
    Fresh.CR2 = regionOfSection(Tr, Index.byGlobalId(Pairs[I].Second));
    Fresh.DeltaNs = Deltas[I];
    Fresh.PairCount = 1;
    bool Absorbed = false;
    for (FusedUlcp &G : Groups)
      if (fuseUlcpGroups(G, Fresh)) {
        Absorbed = true;
        break;
      }
    if (!Absorbed)
      Groups.push_back(std::move(Fresh));
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Groups.size() && !Changed; ++I)
      for (size_t J = I + 1; J < Groups.size(); ++J)
        if (fuseUlcpGroups(Groups[I], Groups[J])) {
          Groups.erase(Groups.begin() + static_cast<ptrdiff_t>(J));
          Changed = true;
          break;
        }
  }
  return Groups;
}

void expectSameGroups(const std::vector<FusedUlcp> &Got,
                      const std::vector<FusedUlcp> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    SCOPED_TRACE("group " + std::to_string(I));
    EXPECT_EQ(Got[I].CR1, Want[I].CR1);
    EXPECT_EQ(Got[I].CR2, Want[I].CR2);
    EXPECT_EQ(Got[I].DeltaNs, Want[I].DeltaNs);
    EXPECT_EQ(Got[I].PairCount, Want[I].PairCount);
    EXPECT_EQ(Got[I].P, Want[I].P);
  }
}

} // namespace

TEST(FusionTest, RepeatAfterEarlierGroupWidenedMergesAtFixpoint) {
  // (S1,SB) opens G0 and (S3,SB) opens G1; (S2,SB) widens G0 to
  // a.cc:1-22, which now overlaps G1.  The repeat of (S3,SB) is
  // first-fit into G0 pair by pair, but lands in G1's seed when fused
  // by site pair: either way only the fixpoint makes one group.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId S1 = B.addSite("a.cc", "f", 1, 10);
  CodeSiteId S2 = B.addSite("a.cc", "f", 8, 22);
  CodeSiteId S3 = B.addSite("a.cc", "f", 20, 30);
  CodeSiteId SB = B.addSite("b.cc", "g", 1, 10);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (CodeSiteId Site : {S1, S3, S2, S3}) {
    B.beginCs(T0, Mu, Site);
    B.read(T0, 1, 0);
    B.endCs(T0);
  }
  B.beginCs(T1, Mu, SB);
  B.read(T1, 1, 0);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  std::vector<UlcpPair> Pairs = {{0, 4, UlcpKind::ReadRead},
                                 {1, 4, UlcpKind::ReadRead},
                                 {2, 4, UlcpKind::ReadRead},
                                 {3, 4, UlcpKind::ReadRead}};
  std::vector<int64_t> Deltas = {1, 10, 100, 1000};
  std::vector<FusedUlcp> Groups = fuseUlcps(Tr, Index, Pairs, Deltas);
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_EQ(Groups[0].DeltaNs, 1111);
  EXPECT_EQ(Groups[0].PairCount, 4u);
  EXPECT_EQ(Groups[0].CR1, region("a.cc", 1, 30));
  EXPECT_EQ(Groups[0].CR2, region("b.cc", 1, 10));
  expectSameGroups(Groups, perPairFusion(Tr, Index, Pairs, Deltas));
}

TEST(FusionTest, MatchesPerPairFusionOnEveryApp) {
  std::vector<AppModel> Models = allApps();
  Models.insert(Models.end(), syntheticApps().begin(),
                syntheticApps().end());
  for (const AppModel &App : Models)
    for (unsigned Threads : {4u, 8u})
      for (double Scale : {1.0, 4.0})
        for (PairModeKind Mode : {PairModeKind::AdjacentCrossThread,
                                  PairModeKind::AllCrossThread}) {
          SCOPED_TRACE(App.Name + "@" + std::to_string(Threads) +
                       " scale " + std::to_string(Scale) +
                       (Mode == PairModeKind::AllCrossThread ? " all"
                                                             : " adjacent"));
          PipelineOptions Opts;
          Opts.Detect.PairMode = Mode;
          AnalysisSession Session(
              generateWorkload(App.Factory(Threads, Scale)), Opts);
          Expected<const PerfDebugReport &> Report = Session.report();
          ASSERT_TRUE(Report.ok()) << Report.message();

          Expected<const CsIndex &> Index = Session.csIndex();
          Expected<const DetectResult &> Det = Session.detect();
          Expected<const ReplayResult &> Orig =
              Session.replay(Opts.Replay.Schedule);
          Expected<const ReplayResult &> Free =
              Session.replayTransformed(Opts.Replay.Schedule);
          ASSERT_TRUE(Index.ok() && Det.ok() && Orig.ok() && Free.ok());
          std::vector<UlcpPair> Unnecessary = Det->unnecessaryPairs();
          std::vector<int64_t> Deltas =
              ulcpImprovements(*Orig, *Free, Unnecessary);
          int64_t SumDelta = 0;
          for (int64_t D : Deltas)
            SumDelta += D;
          std::vector<FusedUlcp> Want =
              perPairFusion(Session.trace(), *Index, Unnecessary, Deltas);
          rankUlcpGroups(Want);

          EXPECT_EQ(Report->SumDelta, SumDelta);
          expectSameGroups(Report->Groups, Want);
        }
}

//===----------------------------------------------------------------------===//
// Equation 2: ranking
//===----------------------------------------------------------------------===//

TEST(RankTest, PSumsToOneAndSorted) {
  std::vector<FusedUlcp> Groups = {
      fused(region("a.cc", 1, 10), region("a.cc", 1, 10), 100),
      fused(region("b.cc", 1, 10), region("b.cc", 1, 10), 300),
      fused(region("c.cc", 1, 10), region("c.cc", 1, 10), 600),
  };
  rankUlcpGroups(Groups);
  double Sum = 0;
  for (const FusedUlcp &G : Groups)
    Sum += G.P;
  EXPECT_NEAR(Sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Groups[0].P, 0.6);
  EXPECT_EQ(Groups[0].CR1.File, "c.cc");
  EXPECT_GE(Groups[0].P, Groups[1].P);
  EXPECT_GE(Groups[1].P, Groups[2].P);
}

TEST(RankTest, ZeroTotalGivesZeroP) {
  std::vector<FusedUlcp> Groups = {
      fused(region("a.cc", 1, 10), region("a.cc", 1, 10), 0),
      fused(region("b.cc", 1, 10), region("b.cc", 1, 10), 0),
  };
  rankUlcpGroups(Groups);
  EXPECT_DOUBLE_EQ(Groups[0].P, 0.0);
  EXPECT_DOUBLE_EQ(Groups[1].P, 0.0);
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

namespace {

/// Two threads contending on read-only sections: a clear ULCP whose
/// removal speeds up the replay.
Trace contendedReaders() {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId Site = B.addSite("srv.cc", "lookup", 10, 30);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (int I = 0; I != 4; ++I) {
    B.compute(T0, 100);
    B.beginCs(T0, Mu, Site);
    B.read(T0, 1, 7);
    B.compute(T0, 900);
    B.endCs(T0);
    B.compute(T1, 120);
    B.beginCs(T1, Mu, Site);
    B.read(T1, 1, 7);
    B.compute(T1, 900);
    B.endCs(T1);
  }
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 17);
  return Tr;
}

} // namespace

TEST(ReportTest, EndToEndReportShowsImprovement) {
  Trace Tr = contendedReaders();
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions DOpts;
  DOpts.PairMode = PairModeKind::AdjacentCrossThread;
  DetectResult Detection = detectUlcps(Tr, Index, DOpts);
  ASSERT_GT(Detection.Counts.ReadRead, 0u);

  TransformResult TR = transformTrace(Tr, Index);
  ReplayOptions ROpts;
  ReplayResult Orig = replayTrace(Tr, ROpts);
  ReplayResult Free = replayTrace(TR.Transformed, ROpts);
  ASSERT_TRUE(Orig.ok() && Free.ok());

  PerfDebugReport Report = buildReport(
      Tr, Index, Detection.unnecessaryPairs(), Orig, Free);
  EXPECT_GT(Report.Tpd, 0) << "removing contention must help";
  // Per-pair Equation-1 deltas cover the whole-program degradation up
  // to segment-boundary effects; they must account for the bulk of it.
  EXPECT_GE(Report.SumDelta, Report.Tpd * 3 / 4);
  EXPECT_GE(Report.Trw, 0);
  ASSERT_EQ(Report.Groups.size(), 1u) << "one code region pair";
  EXPECT_DOUBLE_EQ(Report.Groups[0].P, 1.0);
  EXPECT_GT(Report.normalizedDegradation(), 0.0);

  std::string Text = renderReport(Report);
  EXPECT_NE(Text.find("srv.cc:10-30"), std::string::npos);
  EXPECT_NE(Text.find("recommendation"), std::string::npos);
}

TEST(ReportTest, NoUlcpsNoGroups) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.write(T0, 1, 1);
  B.endCs(T0);
  B.beginCs(T1, Mu);
  B.read(T1, 1, 1);
  B.write(T1, 1, 2);
  B.endCs(T1);
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  DetectResult Detection = detectUlcps(Tr, Index);
  TransformResult TR = transformTrace(Tr, Index);
  ReplayResult Orig = replayTrace(Tr, ReplayOptions());
  ReplayResult Free = replayTrace(TR.Transformed, ReplayOptions());
  PerfDebugReport Report = buildReport(
      Tr, Index, Detection.unnecessaryPairs(), Orig, Free);
  EXPECT_TRUE(Report.Groups.empty());
  EXPECT_EQ(Report.SumDelta, 0);
}
