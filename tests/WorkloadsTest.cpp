//===- tests/WorkloadsTest.cpp - workload model tests ------------------------===//

#include "workloads/Apps.h"
#include "workloads/CaseStudies.h"
#include "workloads/WorkloadSpec.h"

#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "sim/Replayer.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfplay;

//===----------------------------------------------------------------------===//
// Generator mechanics
//===----------------------------------------------------------------------===//

namespace {

WorkloadSpec tinySpec(GroupPatternKind Pattern) {
  WorkloadSpec S;
  S.Name = "tiny";
  S.NumThreads = 2;
  S.Seed = 7;
  LockGroup G;
  G.Name = "g";
  G.Pattern = Pattern;
  G.NumLocks = 2;
  G.SessionsPerThread = 3;
  S.Groups.push_back(G);
  return S;
}

} // namespace

TEST(GeneratorTest, ProducesValidTraces) {
  for (auto Pattern :
       {GroupPatternKind::NullLock, GroupPatternKind::ReadRead,
        GroupPatternKind::DisjointWrite, GroupPatternKind::Benign,
        GroupPatternKind::TrueConflict, GroupPatternKind::Private}) {
    Trace Tr = generateWorkload(tinySpec(Pattern));
    EXPECT_EQ(Tr.validate(), "") << "pattern "
                                 << static_cast<int>(Pattern);
  }
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  Trace A = generateWorkload(tinySpec(GroupPatternKind::ReadRead));
  Trace B = generateWorkload(tinySpec(GroupPatternKind::ReadRead));
  ASSERT_EQ(A.numEvents(), B.numEvents());
  for (size_t T = 0; T != A.Threads.size(); ++T)
    for (size_t I = 0; I != A.Threads[T].Events.size(); ++I)
      EXPECT_TRUE(A.Threads[T].Events[I] == B.Threads[T].Events[I])
          << "thread " << T << " event " << I;
}

namespace {

/// An event's compute cost, 0 for every other kind.
TimeNs costOf(const Event &E) {
  return E.Kind == EventKind::Compute ? E.cost() : 0;
}

} // namespace

TEST(GeneratorTest, SeedChangesTrace) {
  WorkloadSpec S1 = tinySpec(GroupPatternKind::ReadRead);
  WorkloadSpec S2 = S1;
  S2.Seed = 8;
  Trace A = generateWorkload(S1);
  Trace B = generateWorkload(S2);
  bool AnyDifference = A.numEvents() != B.numEvents();
  if (!AnyDifference)
    for (size_t T = 0; T != A.Threads.size() && !AnyDifference; ++T)
      for (size_t I = 0; I != A.Threads[T].Events.size(); ++I)
        if (costOf(A.Threads[T].Events[I]) !=
            costOf(B.Threads[T].Events[I])) {
          AnyDifference = true;
          break;
        }
  EXPECT_TRUE(AnyDifference);
}

TEST(GeneratorTest, InputScaleGrowsSessions) {
  WorkloadSpec S = tinySpec(GroupPatternKind::ReadRead);
  Trace Small = generateWorkload(S);
  S.InputScale = 3.0;
  Trace Large = generateWorkload(S);
  EXPECT_GT(Large.numCriticalSections(), Small.numCriticalSections());
}

TEST(GeneratorTest, ThreadCountRespected) {
  WorkloadSpec S = tinySpec(GroupPatternKind::ReadRead);
  S.NumThreads = 5;
  Trace Tr = generateWorkload(S);
  EXPECT_EQ(Tr.numThreads(), 5u);
}

TEST(GeneratorTest, PrivateLocksNeverShared) {
  WorkloadSpec S = tinySpec(GroupPatternKind::Private);
  Trace Tr = generateWorkload(S);
  // Each lock is used by at most one thread.
  std::vector<std::set<ThreadId>> Users(Tr.Locks.size());
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T)
    for (const Event &E : Tr.Threads[T].Events)
      if (E.Kind == EventKind::LockAcquire)
        Users[E.lock()].insert(T);
  for (const auto &U : Users)
    EXPECT_LE(U.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Pattern mixes produce the intended classifications
//===----------------------------------------------------------------------===//

namespace {

UlcpCounts countsOf(const WorkloadSpec &S) {
  Trace Tr = generateWorkload(S);
  recordGrantSchedule(Tr, S.Seed);
  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  return detectUlcps(Tr, Index, Opts).Counts;
}

} // namespace

TEST(GeneratorPatternTest, ReadReadGroupYieldsReadReadPairs) {
  UlcpCounts C = countsOf(tinySpec(GroupPatternKind::ReadRead));
  EXPECT_GT(C.ReadRead, 0u);
  EXPECT_EQ(C.DisjointWrite, 0u);
  EXPECT_EQ(C.NullLock, 0u);
}

TEST(GeneratorPatternTest, DisjointWriteGroupYieldsDisjointWrites) {
  UlcpCounts C = countsOf(tinySpec(GroupPatternKind::DisjointWrite));
  EXPECT_GT(C.DisjointWrite, 0u);
  EXPECT_EQ(C.ReadRead, 0u);
}

TEST(GeneratorPatternTest, NullLockGroupYieldsNullLocks) {
  UlcpCounts C = countsOf(tinySpec(GroupPatternKind::NullLock));
  EXPECT_GT(C.NullLock, 0u);
  EXPECT_EQ(C.total(), C.NullLock);
}

TEST(GeneratorPatternTest, BenignGroupYieldsBenign) {
  UlcpCounts C = countsOf(tinySpec(GroupPatternKind::Benign));
  EXPECT_GT(C.Benign, 0u);
  EXPECT_EQ(C.TrueContention, 0u);
}

TEST(GeneratorPatternTest, ConflictGroupYieldsContention) {
  UlcpCounts C = countsOf(tinySpec(GroupPatternKind::TrueConflict));
  EXPECT_GT(C.TrueContention, 0u);
  EXPECT_EQ(C.totalUnnecessary(), 0u);
}

TEST(GeneratorPatternTest, PrivateGroupYieldsNothing) {
  UlcpCounts C = countsOf(tinySpec(GroupPatternKind::Private));
  EXPECT_EQ(C.total(), 0u);
}

TEST(GeneratorPatternTest, ConflictFracInjectsContention) {
  WorkloadSpec S = tinySpec(GroupPatternKind::ReadRead);
  S.Groups[0].ConflictFrac = 0.5;
  S.Groups[0].SessionsPerThread = 8;
  UlcpCounts C = countsOf(S);
  EXPECT_GT(C.TrueContention, 0u);
  EXPECT_GT(C.ReadRead, 0u);
}

//===----------------------------------------------------------------------===//
// Application models
//===----------------------------------------------------------------------===//

namespace {

class AppModelTest : public testing::TestWithParam<size_t> {};

} // namespace

TEST_P(AppModelTest, GeneratesValidTwoThreadTrace) {
  const AppModel &App = allApps()[GetParam()];
  WorkloadSpec Spec = App.Factory(2, 1.0);
  EXPECT_EQ(Spec.Name, App.Name);
  Trace Tr = generateWorkload(Spec);
  EXPECT_EQ(Tr.validate(), "") << App.Name;
  EXPECT_EQ(Tr.numThreads(), 2u);
}

TEST_P(AppModelTest, ReplaysWithoutDeadlock) {
  const AppModel &App = allApps()[GetParam()];
  Trace Tr = generateWorkload(App.Factory(2, 0.5));
  ReplayResult Rec = recordGrantSchedule(Tr, 5);
  ASSERT_TRUE(Rec.ok()) << App.Name << ": " << Rec.Error;
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok()) << App.Name << ": " << R.Error;
  EXPECT_GT(R.TotalTime, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppModelTest,
                         testing::Range<size_t>(0, 16));

TEST(AppRegistryTest, SixteenAppsInTableOneOrder) {
  ASSERT_EQ(allApps().size(), 16u);
  EXPECT_EQ(allApps().front().Name, "openldap");
  EXPECT_EQ(allApps()[5].Name, "blackscholes");
  EXPECT_EQ(allApps().back().Name, "x264");
  EXPECT_EQ(realWorldApps().size(), 5u);
  EXPECT_EQ(parsecApps().size(), 11u);
}

TEST(AppShapeTest, CleanAppsHaveNoUlcps) {
  for (const char *Name :
       {"blackscholes", "canneal", "streamcluster", "swaptions"}) {
    const AppModel *App = nullptr;
    for (const AppModel &A : allApps())
      if (A.Name == Name)
        App = &A;
    ASSERT_NE(App, nullptr);
    Trace Tr = generateWorkload(App->Factory(2, 1.0));
    recordGrantSchedule(Tr, 3);
    CsIndex Index = CsIndex::build(Tr);
    DetectOptions Opts;
    Opts.PairMode = PairModeKind::AllCrossThread;
    UlcpCounts C = detectUlcps(Tr, Index, Opts).Counts;
    EXPECT_EQ(C.totalUnnecessary(), 0u) << Name;
  }
}

TEST(AppShapeTest, UlcpRichAppsDetectManyPairs) {
  for (const char *Name : {"mysql", "fluidanimate"}) {
    const AppModel *App = nullptr;
    for (const AppModel &A : allApps())
      if (A.Name == Name)
        App = &A;
    ASSERT_NE(App, nullptr);
    Trace Tr = generateWorkload(App->Factory(2, 1.0));
    recordGrantSchedule(Tr, 3);
    CsIndex Index = CsIndex::build(Tr);
    DetectOptions Opts;
    Opts.PairMode = PairModeKind::AllCrossThread;
    UlcpCounts C = detectUlcps(Tr, Index, Opts).Counts;
    EXPECT_GT(C.ReadRead, 100u) << Name;
    EXPECT_GT(C.DisjointWrite, 50u) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Case studies
//===----------------------------------------------------------------------===//

TEST(CaseStudyTest, Bug1TracesValidate) {
  CaseStudyParams P;
  EXPECT_EQ(makeOpenldapSpinWait(P).validate(), "");
  EXPECT_EQ(makeOpenldapSpinWaitFixed(P).validate(), "");
}

TEST(CaseStudyTest, Bug2TracesValidate) {
  CaseStudyParams P;
  EXPECT_EQ(makePbzip2Consumer(P).validate(), "");
  EXPECT_EQ(makePbzip2ConsumerFixed(P).validate(), "");
}

TEST(CaseStudyTest, MysqlTracesValidate) {
  CaseStudyParams P;
  EXPECT_EQ(makeMysqlQueryCache(P).validate(), "");
  EXPECT_EQ(makeMysqlQueryCacheFixed(P).validate(), "");
}

TEST(CaseStudyTest, Bug1FixRemovesSpinWaste) {
  CaseStudyParams P;
  P.NumThreads = 4;
  Trace Buggy = makeOpenldapSpinWait(P);
  Trace Fixed = makeOpenldapSpinWaitFixed(P);
  recordGrantSchedule(Buggy, 3);
  recordGrantSchedule(Fixed, 3);
  ReplayResult RBuggy = replayTrace(Buggy, ReplayOptions());
  ReplayResult RFixed = replayTrace(Fixed, ReplayOptions());
  ASSERT_TRUE(RBuggy.ok() && RFixed.ok());
  // The buggy run burns CPU in the spin polls; the fixed run blocks
  // idly on the barrier lock instead and has far fewer sections.
  EXPECT_EQ(RFixed.SpinWaitNs, 0u);
  EXPECT_GT(RFixed.IdleWaitNs, 0u);
  EXPECT_GT(Buggy.numCriticalSections(), Fixed.numCriticalSections());
}

TEST(CaseStudyTest, Bug2FixReducesCriticalSections) {
  CaseStudyParams P;
  P.NumThreads = 4;
  Trace Buggy = makePbzip2Consumer(P);
  Trace Fixed = makePbzip2ConsumerFixed(P);
  EXPECT_GT(Buggy.numCriticalSections(), Fixed.numCriticalSections());
}

TEST(CaseStudyTest, Bug2PollingCreatesReadReadUlcps) {
  CaseStudyParams P;
  P.NumThreads = 4;
  Trace Buggy = makePbzip2Consumer(P);
  recordGrantSchedule(Buggy, 3);
  CsIndex Index = CsIndex::build(Buggy);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  UlcpCounts C = detectUlcps(Buggy, Index, Opts).Counts;
  EXPECT_GT(C.ReadRead, 0u);
}

TEST(CaseStudyTest, MysqlBugSerializesSessions) {
  CaseStudyParams P;
  P.NumThreads = 4;
  Trace Buggy = makeMysqlQueryCache(P);
  Trace Fixed = makeMysqlQueryCacheFixed(P);
  recordGrantSchedule(Buggy, 3);
  recordGrantSchedule(Fixed, 3);
  ReplayResult RBuggy = replayTrace(Buggy, ReplayOptions());
  ReplayResult RFixed = replayTrace(Fixed, ReplayOptions());
  ASSERT_TRUE(RBuggy.ok() && RFixed.ok());
  // Holding the guard across the timed wait serializes the sessions:
  // the buggy variant is materially slower end-to-end.
  EXPECT_GT(RBuggy.TotalTime, RFixed.TotalTime * 3 / 2);
}

TEST(CaseStudyTest, InputScaleGrowsWork) {
  CaseStudyParams Small;
  CaseStudyParams Large;
  Large.InputScale = 4.0;
  EXPECT_GT(makePbzip2Consumer(Large).numEvents(),
            makePbzip2Consumer(Small).numEvents());
}

//===----------------------------------------------------------------------===//
// Synthetic (non-Table-1) apps: the rwlock/trylock/condvar corpus
//===----------------------------------------------------------------------===//

TEST(SyntheticAppTest, RegistryHoldsRwMixBesideTableOne) {
  // rwmix lives in its own registry so the Table-1 roster stays 16.
  ASSERT_GE(syntheticApps().size(), 1u);
  bool Found = false;
  for (const AppModel &App : syntheticApps())
    Found |= App.Name == "rwmix";
  EXPECT_TRUE(Found);
  for (const AppModel &App : allApps())
    EXPECT_NE(App.Name, "rwmix");
}

TEST(SyntheticAppTest, RwMixGeneratesExtendedVocabulary) {
  Trace Tr = generateWorkload(makeRwMix(4, 1.0));
  ASSERT_EQ(Tr.validate(), "");
  EXPECT_EQ(Tr.numThreads(), 4u);
  uint64_t RwReads = 0, RwWrites = 0, TryOk = 0, TryFail = 0, Waits = 0,
           Signals = 0;
  for (const ThreadTrace &T : Tr.Threads)
    for (const Event &E : T.Events)
      switch (E.Kind) {
      case EventKind::RwAcquireRead:
        ++RwReads;
        break;
      case EventKind::RwAcquireWrite:
        ++RwWrites;
        break;
      case EventKind::TryAcquire:
        ++(E.TrySucceeded ? TryOk : TryFail);
        break;
      case EventKind::CondWait:
        ++Waits;
        break;
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        ++Signals;
        break;
      default:
        break;
      }
  // The corpus must exercise every new kind, including failed tries.
  EXPECT_GT(RwReads, 0u);
  EXPECT_GT(RwWrites, 0u);
  EXPECT_GT(TryOk, 0u);
  EXPECT_GT(TryFail, 0u);
  EXPECT_GT(Waits, 0u);
  EXPECT_GT(Signals, 0u);
}

TEST(SyntheticAppTest, RwMixReplaysAndDetects) {
  Trace Tr = generateWorkload(makeRwMix(4, 0.5));
  ReplayResult Rec = recordGrantSchedule(Tr, 5);
  ASSERT_TRUE(Rec.ok()) << Rec.Error;
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(R.TotalTime, 0u);

  CsIndex Index = CsIndex::build(Tr);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult D = detectUlcps(Tr, Index, Opts);
  // Reader-reader pairs and trylock-failure edges both surface.
  EXPECT_GT(D.Counts.ReadRead, 0u);
  EXPECT_GT(D.TryFailEdges, 0u);
}
