//===- tests/SimTest.cpp - replay engine tests -------------------------------===//

#include "sim/Replayer.h"

#include "detect/CriticalSection.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "transform/Transform.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

using namespace perfplay;

namespace {

/// Figure 11's shape: T1 = {3s gap, A(4s)}, T2 = {2s gap, B(3s)}, both
/// sections on the same lock.  Costs in "seconds" scaled to ns units.
Trace figure11Trace() {
  TraceBuilder B;
  LockId Mu = B.addLock("L");
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  B.compute(T1, 3000);
  B.beginCs(T1, Mu);
  B.read(T1, 1, 0);
  B.compute(T1, 4000);
  B.endCs(T1);
  B.compute(T2, 2000);
  B.beginCs(T2, Mu);
  B.read(T2, 1, 0);
  B.compute(T2, 3000);
  B.endCs(T2);
  return B.finish();
}

/// Zero-cost model isolates ordering behavior from primitive costs.
CostModel freeCosts() {
  CostModel C;
  C.LockAcquire = 0;
  C.LockRelease = 0;
  C.MemAccess = 0;
  C.MemSerialize = 0;
  C.LocksetMaintain = 0;
  C.LocksetMaintainDls = 0;
  C.LocksetEndCheck = 0;
  return C;
}

ReplayOptions optionsFor(ScheduleKind Kind, uint64_t Seed = 1,
                         CostModel Costs = freeCosts()) {
  ReplayOptions O;
  O.Schedule = Kind;
  O.Seed = Seed;
  O.OrigJitter = 0.0;
  O.Costs = Costs;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Basic single-thread semantics
//===----------------------------------------------------------------------===//

TEST(ReplayerTest, SingleThreadAccumulatesCosts) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T = B.addThread();
  B.compute(T, 100);
  B.beginCs(T, Mu);
  B.read(T, 1, 0);
  B.compute(T, 50);
  B.endCs(T);
  B.compute(T, 25);
  Trace Tr = B.finish();

  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::OrigS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.TotalTime, 175u);
  ASSERT_EQ(R.Sections.size(), 1u);
  EXPECT_EQ(R.Sections[0].Arrival, 100u);
  EXPECT_EQ(R.Sections[0].Granted, 100u);
  EXPECT_EQ(R.Sections[0].Released, 150u);
  EXPECT_EQ(R.Sections[0].SuccessorEnd, 175u);
}

TEST(ReplayerTest, PrimitiveCostsCharged) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T = B.addThread();
  B.beginCs(T, Mu);
  B.read(T, 1, 0);
  B.write(T, 1, 2);
  B.endCs(T);
  Trace Tr = B.finish();

  CostModel Costs;
  Costs.LockAcquire = 10;
  Costs.LockRelease = 7;
  Costs.MemAccess = 3;
  ReplayResult R =
      replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 1, Costs));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.TotalTime, 10u + 3 + 3 + 7);
}

//===----------------------------------------------------------------------===//
// Mutual exclusion and ordering
//===----------------------------------------------------------------------===//

TEST(ReplayerTest, Figure11MutualExclusion) {
  Trace Tr = figure11Trace();
  // Earliest arrival: T2 arrives at 2s, runs to 5s; T1 waits 3->5,
  // runs 5->9: the program costs 9s (Figure 11(b)).
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::OrigS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.TotalTime, 9000u);
  // Sections never overlap.
  EXPECT_TRUE(R.Sections[0].Granted >= R.Sections[1].Released ||
              R.Sections[1].Granted >= R.Sections[0].Released);
}

TEST(ReplayerTest, ElscEnforcesRecordedOrder) {
  Trace Tr = figure11Trace();
  // Record the *other* order: T1's section first (Figure 11(a)):
  // T1 3->7, T2 waits 2->7, runs 7->10... but with A first the paper
  // says 8s: T1 3..7, T2 7..10 = 10? The paper's (a) timing uses
  // different segment layout; what matters here is enforcement:
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[0] = {CsRef{0, 0}, CsRef{1, 0}};
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::ElscS));
  ASSERT_TRUE(R.ok()) << R.Error;
  // T1 granted at its arrival (3000), T2 afterwards.
  EXPECT_EQ(R.Sections[0].Granted, 3000u);
  EXPECT_GE(R.Sections[1].Granted, R.Sections[0].Released);
  EXPECT_EQ(R.TotalTime, 10000u);
}

TEST(ReplayerTest, ElscIdleLockWaitsForScheduledOwner) {
  // The recorded order says T1 first even though T2 arrives earlier:
  // the lock must idle until T1 arrives.
  Trace Tr = figure11Trace();
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[0] = {CsRef{0, 0}, CsRef{1, 0}};
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::ElscS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Sections[1].Granted, 7000u); // After T1 releases at 7000.
  EXPECT_EQ(R.Sections[1].waitNs(), 5000u);
}

TEST(ReplayerTest, ElscDeterministicAcrossReplays) {
  Trace Tr = figure11Trace();
  recordGrantSchedule(Tr, /*Seed=*/7, freeCosts());
  ReplayResult First = replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 1));
  for (uint64_t Seed : {2, 3, 4, 5}) {
    ReplayResult Again =
        replayTrace(Tr, optionsFor(ScheduleKind::ElscS, Seed));
    EXPECT_EQ(Again.TotalTime, First.TotalTime);
    for (size_t I = 0; I != First.Sections.size(); ++I) {
      EXPECT_EQ(Again.Sections[I].Granted, First.Sections[I].Granted);
      EXPECT_EQ(Again.Sections[I].Released, First.Sections[I].Released);
    }
  }
}

TEST(ReplayerTest, OrigSeedChangesOutcomeWithJitter) {
  Trace Tr = figure11Trace();
  ReplayOptions A = optionsFor(ScheduleKind::OrigS, 1);
  A.OrigJitter = 0.05;
  ReplayOptions B = optionsFor(ScheduleKind::OrigS, 2);
  B.OrigJitter = 0.05;
  ReplayResult RA = replayTrace(Tr, A);
  ReplayResult RB = replayTrace(Tr, B);
  ASSERT_TRUE(RA.ok() && RB.ok());
  EXPECT_NE(RA.TotalTime, RB.TotalTime);
}

TEST(ReplayerTest, RecordGrantScheduleInstallsSchedule) {
  Trace Tr = figure11Trace();
  EXPECT_TRUE(Tr.LockSchedule.empty());
  ReplayResult R = recordGrantSchedule(Tr, 5, freeCosts());
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(Tr.LockSchedule.size(), Tr.Locks.size());
  ASSERT_EQ(Tr.LockSchedule[0].size(), 2u);
  // Earliest arrival is T2 (arrives at 2000).
  EXPECT_EQ(Tr.LockSchedule[0][0].Thread, 1u);
  EXPECT_EQ(Tr.validate(), "");
}

//===----------------------------------------------------------------------===//
// SYNC-S and MEM-S
//===----------------------------------------------------------------------===//

TEST(ReplayerTest, SyncSDeterministicAndNoFasterThanElsc) {
  Trace Tr = figure11Trace();
  recordGrantSchedule(Tr, 7, freeCosts());
  ReplayResult Elsc = replayTrace(Tr, optionsFor(ScheduleKind::ElscS));
  ReplayResult Sync1 = replayTrace(Tr, optionsFor(ScheduleKind::SyncS, 1));
  ReplayResult Sync2 = replayTrace(Tr, optionsFor(ScheduleKind::SyncS, 9));
  ASSERT_TRUE(Elsc.ok() && Sync1.ok() && Sync2.ok());
  EXPECT_EQ(Sync1.TotalTime, Sync2.TotalTime);
  EXPECT_GE(Sync1.TotalTime, Elsc.TotalTime);
}

TEST(ReplayerTest, SyncSOrdersBySoloArrival) {
  // Solo arrivals: T1 at 3000, T2 at 2000 -> SYNC-S grants T2 first,
  // regardless of a recorded schedule that says otherwise.
  Trace Tr = figure11Trace();
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[0] = {CsRef{0, 0}, CsRef{1, 0}};
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::SyncS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_LT(R.Sections[1].Granted, R.Sections[0].Granted);
}

TEST(ReplayerTest, MemSDeterministicAndSlower) {
  Trace Tr = figure11Trace();
  recordGrantSchedule(Tr, 7, freeCosts());
  CostModel Costs = freeCosts();
  Costs.MemAccess = 5;
  Costs.MemSerialize = 50;
  ReplayResult Elsc =
      replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 1, Costs));
  ReplayResult Mem1 =
      replayTrace(Tr, optionsFor(ScheduleKind::MemS, 1, Costs));
  ReplayResult Mem2 =
      replayTrace(Tr, optionsFor(ScheduleKind::MemS, 8, Costs));
  ASSERT_TRUE(Elsc.ok() && Mem1.ok() && Mem2.ok());
  EXPECT_EQ(Mem1.TotalTime, Mem2.TotalTime);
  EXPECT_GT(Mem1.TotalTime, Elsc.TotalTime);
}

TEST(ReplayerTest, SoloArrivalsIgnoreContention) {
  Trace Tr = figure11Trace();
  std::vector<TimeNs> Solo = computeSoloArrivals(Tr, freeCosts());
  ASSERT_EQ(Solo.size(), 2u);
  EXPECT_EQ(Solo[0], 3000u);
  EXPECT_EQ(Solo[1], 2000u);
}

namespace {

/// The SYNC-S order as the replayer built it before the merge: each
/// lock's sections, gathered thread-major, stable-sorted by (solo
/// arrival, id).  Oracle for computeSyncOrder.
std::vector<std::vector<uint32_t>> sortedSyncOrder(const Trace &Tr,
                                                   const CostModel &Costs) {
  std::vector<TimeNs> Solo = computeSoloArrivals(Tr, Costs);
  std::vector<std::vector<uint32_t>> ByLock(Tr.Locks.size());
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    uint32_t Index = 0;
    for (const Event &E : Tr.Threads[T].Events)
      if (isSectionOpen(E))
        ByLock[E.lock()].push_back(Tr.globalCsId(CsRef{T, Index++}));
  }
  for (std::vector<uint32_t> &Order : ByLock)
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       if (Solo[A] != Solo[B])
                         return Solo[A] < Solo[B];
                       return A < B;
                     });
  return ByLock;
}

} // namespace

// Default costs, and free costs, under which many sections of
// different threads tie on solo arrival and the id must break the tie.
TEST(ReplayerTest, SyncOrderMergeMatchesStableSort) {
  size_t Checked = 0;
  for (const auto *Apps : {&allApps(), &syntheticApps()})
    for (const AppModel &M : *Apps)
      for (unsigned Threads : {4u, 8u})
        for (double Scale : {1.0, 4.0}) {
          Trace Tr = generateWorkload(M.Factory(Threads, Scale));
          for (const CostModel &Costs : {CostModel(), freeCosts()})
            EXPECT_EQ(computeSyncOrder(Tr, Costs),
                      sortedSyncOrder(Tr, Costs))
                << M.Name << " threads=" << Threads << " scale=" << Scale;
          ++Checked;
        }
  EXPECT_EQ(Checked, 4 * (allApps().size() + syntheticApps().size()));
}

//===----------------------------------------------------------------------===//
// Spin accounting
//===----------------------------------------------------------------------===//

TEST(ReplayerTest, SpinWaitChargedForSpinLocks) {
  TraceBuilder B;
  LockId Mu = B.addLock("spin", /*IsSpin=*/true);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.read(T0, 1, 0);
  B.compute(T0, 1000);
  B.endCs(T0);
  B.compute(T1, 100);
  B.beginCs(T1, Mu);
  B.read(T1, 1, 0);
  B.endCs(T1);
  Trace Tr = B.finish();
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::OrigS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.SpinWaitNs, 900u); // T1 spins from 100 to 1000.
  EXPECT_EQ(R.IdleWaitNs, 0u);
  EXPECT_EQ(R.ThreadSpinWaitNs[1], 900u);
}

TEST(ReplayerTest, IdleWaitChargedForBlockingLocks) {
  TraceBuilder B;
  LockId Mu = B.addLock("mutex", /*IsSpin=*/false);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.compute(T0, 1000);
  B.endCs(T0);
  B.compute(T1, 100);
  B.beginCs(T1, Mu);
  B.endCs(T1);
  Trace Tr = B.finish();
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::OrigS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.IdleWaitNs, 900u);
  EXPECT_EQ(R.SpinWaitNs, 0u);
}

//===----------------------------------------------------------------------===//
// Locksets, constraints, dynamic locking
//===----------------------------------------------------------------------===//

namespace {

/// Two read-only sections on the same lock, transformed by hand into
/// empty locksets (parallel) with an optional constraint.
Trace parallelizedTrace(bool WithConstraint) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.read(T0, 1, 0);
  B.compute(T0, 1000);
  B.endCs(T0);
  B.beginCs(T1, Mu);
  B.read(T1, 1, 0);
  B.compute(T1, 1000);
  B.endCs(T1);
  Trace Tr = B.finish();
  Tr.Locksets.push_back(Lockset()); // Empty: lock removed.
  for (auto &Thread : Tr.Threads)
    for (auto &E : Thread.Events)
      if (E.Kind == EventKind::LockAcquire)
        E.setLockset(0);
  if (WithConstraint)
    Tr.Constraints.push_back(OrderConstraint{0, 1});
  return Tr;
}

} // namespace

TEST(ReplayerTest, EmptyLocksetsRunInParallel) {
  Trace Tr = parallelizedTrace(/*WithConstraint=*/false);
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::ElscS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.TotalTime, 1000u); // Fully parallel.
  EXPECT_EQ(R.Sections[0].waitNs(), 0u);
  EXPECT_EQ(R.Sections[1].waitNs(), 0u);
}

TEST(ReplayerTest, ConstraintsOrderGrantsWithoutSerializing) {
  Trace Tr = parallelizedTrace(/*WithConstraint=*/true);
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::ElscS));
  ASSERT_TRUE(R.ok()) << R.Error;
  // Both sections are empty-lockset, so the constraint is vacuous for
  // them (grant at arrival 0 both) and execution stays parallel.
  EXPECT_EQ(R.TotalTime, 1000u);
}

TEST(ReplayerTest, IntersectingLocksetsExclude) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  LockId Aux = B.addLock("@L0");
  (void)Aux;
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.compute(T0, 500);
  B.endCs(T0);
  B.beginCs(T1, Mu);
  B.compute(T1, 500);
  B.endCs(T1);
  Trace Tr = B.finish();
  // Both sections get lockset {@L0}: they must serialize (RULE 4).
  Lockset LS;
  LS.Entries.push_back(LocksetEntry{1, InvalidId});
  Tr.Locksets.push_back(LS);
  for (auto &Thread : Tr.Threads)
    for (auto &E : Thread.Events)
      if (E.Kind == EventKind::LockAcquire)
        E.setLockset(0);
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::ElscS));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.TotalTime, 1000u); // Serialized.
  EXPECT_TRUE(R.Sections[0].Granted >= R.Sections[1].Released ||
              R.Sections[1].Granted >= R.Sections[0].Released);
}

TEST(ReplayerTest, DynamicLockingSkipsFinishedSources) {
  // T0's source section finishes long before T1 arrives; with DLS the
  // target acquires nothing and pays no lockset overhead for it.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  LockId Aux = B.addLock("@L0");
  (void)Aux;
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.compute(T0, 100);
  B.endCs(T0);
  B.compute(T1, 5000); // Arrives well after T0 finished.
  B.beginCs(T1, Mu);
  B.compute(T1, 100);
  B.endCs(T1);
  Trace Tr = B.finish();
  Lockset SourceSet; // Section 0: own aux lock.
  SourceSet.Entries.push_back(LocksetEntry{1, InvalidId});
  Lockset TargetSet; // Section 1: the source's lock.
  TargetSet.Entries.push_back(LocksetEntry{1, 0});
  Tr.Locksets.push_back(SourceSet);
  Tr.Locksets.push_back(TargetSet);
  Tr.Threads[0].Events[1].setLockset(0);
  Tr.Threads[1].Events[2].setLockset(1);
  Tr.Constraints.push_back(OrderConstraint{0, 1});

  CostModel Costs = freeCosts();
  Costs.LocksetMaintain = 100;
  ReplayOptions WithDls = optionsFor(ScheduleKind::ElscS, 1, Costs);
  WithDls.UseDynamicLocking = true;
  ReplayOptions NoDls = WithDls;
  NoDls.UseDynamicLocking = false;

  ReplayResult RDls = replayTrace(Tr, WithDls);
  ReplayResult RFull = replayTrace(Tr, NoDls);
  ASSERT_TRUE(RDls.ok() && RFull.ok());
  // DLS: target set resolves empty -> 1 lockset lock acquired total.
  EXPECT_EQ(RDls.LocksetLocksAcquired, 1u);
  EXPECT_EQ(RFull.LocksetLocksAcquired, 2u);
  EXPECT_LT(RDls.LocksetOverheadNs, RFull.LocksetOverheadNs);
}

TEST(ReplayerTest, DlsPreservesExclusionWhenSourceActive) {
  // Source still running when the target arrives: DLS must keep the
  // lock and the sections must not overlap.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  LockId Aux = B.addLock("@L0");
  (void)Aux;
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.compute(T0, 2000);
  B.endCs(T0);
  B.compute(T1, 100);
  B.beginCs(T1, Mu);
  B.compute(T1, 100);
  B.endCs(T1);
  Trace Tr = B.finish();
  Lockset SourceSet;
  SourceSet.Entries.push_back(LocksetEntry{1, InvalidId});
  Lockset TargetSet;
  TargetSet.Entries.push_back(LocksetEntry{1, 0});
  Tr.Locksets.push_back(SourceSet);
  Tr.Locksets.push_back(TargetSet);
  Tr.Threads[0].Events[1].setLockset(0);
  Tr.Threads[1].Events[2].setLockset(1);
  Tr.Constraints.push_back(OrderConstraint{0, 1});

  ReplayOptions Opts = optionsFor(ScheduleKind::ElscS);
  Opts.UseDynamicLocking = true;
  ReplayResult R = replayTrace(Tr, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GE(R.Sections[1].Granted, R.Sections[0].Released);
}

//===----------------------------------------------------------------------===//
// Properties over generated traces
//===----------------------------------------------------------------------===//

namespace {

/// Random multi-lock trace for property checks.
Trace randomTrace(uint64_t Seed, unsigned Threads, unsigned Locks,
                  unsigned Sessions) {
  TraceBuilder B;
  std::vector<LockId> Mu;
  for (unsigned L = 0; L != Locks; ++L)
    Mu.push_back(B.addLock("l" + std::to_string(L), L % 2 == 0));
  std::vector<ThreadId> Ids;
  for (unsigned T = 0; T != Threads; ++T)
    Ids.push_back(B.addThread());
  uint64_t State = Seed;
  auto next = [&State] { return State = splitMix64(State); };
  for (unsigned T = 0; T != Threads; ++T)
    for (unsigned S = 0; S != Sessions; ++S) {
      LockId L = Mu[next() % Locks];
      B.compute(Ids[T], next() % 500 + 1);
      B.beginCs(Ids[T], L);
      if (next() % 2)
        B.read(Ids[T], L * 10, 0);
      else
        B.write(Ids[T], L * 10 + T, next() % 100);
      B.compute(Ids[T], next() % 300 + 1);
      B.endCs(Ids[T]);
    }
  return B.finish();
}

class ReplayPropertyTest : public testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ReplayPropertyTest, MutualExclusionHolds) {
  Trace Tr = randomTrace(GetParam(), 3, 2, 6);
  recordGrantSchedule(Tr, GetParam());
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 1,
                                              CostModel()));
  ASSERT_TRUE(R.ok()) << R.Error;
  // No two same-lock sections overlap in [Granted, Released).
  CsIndex Index = CsIndex::build(Tr);
  for (size_t I = 0; I != Index.size(); ++I)
    for (size_t J = I + 1; J != Index.size(); ++J) {
      const CriticalSection &A = Index.byGlobalId(I);
      const CriticalSection &Bs = Index.byGlobalId(J);
      if (A.Lock != Bs.Lock || A.Ref.Thread == Bs.Ref.Thread)
        continue;
      const CsTiming &TA = R.Sections[I];
      const CsTiming &TB = R.Sections[J];
      EXPECT_TRUE(TA.Released <= TB.Granted || TB.Released <= TA.Granted)
          << "sections " << I << " and " << J << " overlap";
    }
}

TEST_P(ReplayPropertyTest, ElscReplaysAreBitIdentical) {
  Trace Tr = randomTrace(GetParam(), 3, 3, 5);
  recordGrantSchedule(Tr, GetParam());
  ReplayResult First =
      replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 11, CostModel()));
  ReplayResult Second =
      replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 93, CostModel()));
  ASSERT_TRUE(First.ok() && Second.ok());
  EXPECT_EQ(First.TotalTime, Second.TotalTime);
  EXPECT_EQ(First.SpinWaitNs, Second.SpinWaitNs);
  for (size_t I = 0; I != First.Sections.size(); ++I)
    EXPECT_EQ(First.Sections[I].Granted, Second.Sections[I].Granted);
}

TEST_P(ReplayPropertyTest, ElscFollowsRecordedOrder) {
  Trace Tr = randomTrace(GetParam(), 3, 2, 5);
  recordGrantSchedule(Tr, GetParam());
  ReplayResult R =
      replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 1, CostModel()));
  ASSERT_TRUE(R.ok()) << R.Error;
  // The grant schedule observed in the ELSC replay equals the recorded
  // one exactly.
  ASSERT_EQ(R.GrantSchedule.size(), Tr.LockSchedule.size());
  for (size_t L = 0; L != Tr.LockSchedule.size(); ++L) {
    ASSERT_EQ(R.GrantSchedule[L].size(), Tr.LockSchedule[L].size());
    for (size_t I = 0; I != Tr.LockSchedule[L].size(); ++I)
      EXPECT_TRUE(R.GrantSchedule[L][I] == Tr.LockSchedule[L][I]);
  }
}

TEST_P(ReplayPropertyTest, SchemesRankAsInFigure13) {
  Trace Tr = randomTrace(GetParam(), 4, 2, 6);
  recordGrantSchedule(Tr, GetParam());
  CostModel Costs;
  ReplayResult Elsc =
      replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 1, Costs));
  ReplayResult Sync =
      replayTrace(Tr, optionsFor(ScheduleKind::SyncS, 1, Costs));
  ReplayResult Sync2 =
      replayTrace(Tr, optionsFor(ScheduleKind::SyncS, 77, Costs));
  ReplayResult Mem =
      replayTrace(Tr, optionsFor(ScheduleKind::MemS, 1, Costs));
  ASSERT_TRUE(Elsc.ok() && Sync.ok() && Sync2.ok() && Mem.ok());
  // MEM-S piggybacks on the ELSC lock order and adds access
  // serialization: never faster.
  EXPECT_GE(Mem.TotalTime, Elsc.TotalTime);
  // SYNC-S is deterministic across seeds (input-driven order).
  EXPECT_EQ(Sync.TotalTime, Sync2.TotalTime);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayPropertyTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                         89));

//===----------------------------------------------------------------------===//
// Extended vocabulary: reader concurrency, trylock, condvars
//===----------------------------------------------------------------------===//

namespace {

/// Two threads each running one 1000ns section on the same rwlock,
/// reader-side when \p Shared, writer-side otherwise.
Trace rwPairTrace(bool Shared) {
  TraceBuilder B;
  LockId Rw = B.addLock("rw");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1}) {
    if (Shared)
      B.beginCsShared(T, Rw);
    else
      B.beginCsWrite(T, Rw);
    B.read(T, 1, 0);
    B.compute(T, 1000);
    B.endCs(T);
  }
  return B.finish();
}

} // namespace

TEST(ReplayerTest, SharedReadersOverlapWritersExclude) {
  Trace Readers = rwPairTrace(/*Shared=*/true);
  recordGrantSchedule(Readers, 7, freeCosts());
  ReplayResult R = replayTrace(Readers, optionsFor(ScheduleKind::ElscS));
  ASSERT_TRUE(R.ok()) << R.Error;
  // Both readers hold the rwlock concurrently: wall time is one body.
  EXPECT_EQ(R.TotalTime, 1000u);

  Trace Writers = rwPairTrace(/*Shared=*/false);
  recordGrantSchedule(Writers, 7, freeCosts());
  ReplayResult W = replayTrace(Writers, optionsFor(ScheduleKind::ElscS));
  ASSERT_TRUE(W.ok()) << W.Error;
  // Writer-side sections exclude exactly like mutexes.
  EXPECT_EQ(W.TotalTime, 2000u);
}

TEST(ReplayerTest, FailedTryPaysFailCostWithoutSection) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T = B.addThread();
  B.tryCs(T, Mu, InvalidId, /*Succeeded=*/false);
  B.compute(T, 100);
  Trace Tr = B.finish();

  CostModel Costs = freeCosts();
  Costs.TryLockFail = 20;
  ReplayResult R =
      replayTrace(Tr, optionsFor(ScheduleKind::OrigS, 1, Costs));
  ASSERT_TRUE(R.ok()) << R.Error;
  // The fallback path costs one failed compare-exchange; no section
  // opens and nothing blocks.
  EXPECT_EQ(R.TotalTime, 120u);
  EXPECT_EQ(R.Sections.size(), 0u);
}

TEST(ReplayerTest, SuccessfulTryChargedLikeAcquire) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T = B.addThread();
  B.tryCs(T, Mu, InvalidId, /*Succeeded=*/true);
  B.read(T, 1, 0);
  B.endCs(T);
  Trace Tr = B.finish();

  CostModel Costs;
  Costs.LockAcquire = 10;
  Costs.LockRelease = 7;
  Costs.MemAccess = 3;
  ReplayResult R =
      replayTrace(Tr, optionsFor(ScheduleKind::ElscS, 1, Costs));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.TotalTime, 10u + 3 + 7);
  EXPECT_EQ(R.Sections.size(), 1u);
}

TEST(ReplayerTest, CondEventCostsCharged) {
  TraceBuilder B;
  LockId Cv = B.addLock("cv");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.condSignal(T0, Cv);
  B.condBroadcast(T0, Cv);
  B.condWait(T1, Cv);
  B.compute(T1, 100);
  Trace Tr = B.finish();

  CostModel Costs = freeCosts();
  Costs.CondSignal = 10;
  Costs.CondWait = 50;
  ReplayResult R =
      replayTrace(Tr, optionsFor(ScheduleKind::OrigS, 1, Costs));
  ASSERT_TRUE(R.ok()) << R.Error;
  // T0: signal + broadcast = 20; T1: park + body = 150.
  EXPECT_EQ(R.ThreadFinish[0], 20u);
  EXPECT_EQ(R.ThreadFinish[1], 150u);
  EXPECT_EQ(R.TotalTime, 150u);
}

//===----------------------------------------------------------------------===//
// MEM-S access order
//===----------------------------------------------------------------------===//

TEST(ReplayerTest, MemSTieGrantsLowerThreadFirst) {
  // Two threads on distinct locks whose only accesses finish at the
  // same pre-replay instant: the enforced order breaks the tie by
  // thread id.
  TraceBuilder B;
  LockId L0 = B.addLock("l0");
  LockId L1 = B.addLock("l1");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.compute(T0, 100);
  B.beginCs(T0, L0);
  B.read(T0, 1, 0);
  B.endCs(T0);
  B.compute(T1, 100);
  B.beginCs(T1, L1);
  B.write(T1, 2, 0);
  B.endCs(T1);
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 1, freeCosts());

  CostModel Costs = freeCosts();
  Costs.MemAccess = 1;
  Costs.MemSerialize = 10;
  ReplayResult R = replayTrace(Tr, optionsFor(ScheduleKind::MemS, 1, Costs));
  ASSERT_TRUE(R.ok()) << R.Error;
  // T0 goes at 100 and holds the serialized bus until 111; T1 waits.
  EXPECT_EQ(R.ThreadFinish[T0], 111u);
  EXPECT_EQ(R.ThreadFinish[T1], 122u);
  EXPECT_EQ(R.IdleWaitNs, 11u);
}

//===----------------------------------------------------------------------===//
// Pinned answers over every application model
//===----------------------------------------------------------------------===//

namespace {

/// Order-sensitive 64-bit fold of a value stream.
struct Digest {
  uint64_t H = 0x9e3779b97f4a7c15ull;
  void add(uint64_t V) { H = splitMix64(H ^ V); }
};

/// Folds every ReplayResult field into \p D.
void addReplay(Digest &D, const ReplayResult &R) {
  D.add(R.Error.size());
  for (char C : R.Error)
    D.add(static_cast<unsigned char>(C));
  D.add(R.TotalTime);
  D.add(R.ThreadFinish.size());
  for (TimeNs T : R.ThreadFinish)
    D.add(T);
  D.add(R.Sections.size());
  for (const CsTiming &S : R.Sections) {
    D.add(S.PrecursorStart);
    D.add(S.Arrival);
    D.add(S.Granted);
    D.add(S.Released);
    D.add(S.SuccessorEnd);
  }
  D.add(R.SpinWaitNs);
  D.add(R.IdleWaitNs);
  D.add(R.ThreadSpinWaitNs.size());
  for (TimeNs T : R.ThreadSpinWaitNs)
    D.add(T);
  D.add(R.LocksetOverheadNs);
  D.add(R.LocksetLocksAcquired);
  D.add(R.OrderBreaks);
  D.add(R.GrantSchedule.size());
  for (const std::vector<CsRef> &Order : R.GrantSchedule) {
    D.add(Order.size());
    for (const CsRef &Ref : Order)
      D.add((uint64_t(Ref.Thread) << 32) | Ref.Index);
  }
}

/// Digest of the sixteen replays of \p Tr: ORIG/ELSC/SYNC/MEM, dynamic
/// locking on and off, seeds 1 and 9, default costs.
uint64_t digestAllSchemes(const Trace &Tr) {
  Digest D;
  for (ScheduleKind Kind : {ScheduleKind::OrigS, ScheduleKind::ElscS,
                            ScheduleKind::SyncS, ScheduleKind::MemS})
    for (bool Dls : {true, false})
      for (uint64_t Seed : {1u, 9u}) {
        ReplayOptions O;
        O.Schedule = Kind;
        O.Seed = Seed;
        O.UseDynamicLocking = Dls;
        addReplay(D, replayTrace(Tr, O));
      }
  return D.H;
}

/// Pinned digests: the recorded trace (4 threads, scale 1, grant
/// schedule recorded with seed 42) and its ULCP-free transform.  A
/// change to any replayed timestamp, counter or grant order moves them.
struct PinnedDigest {
  const char *App;
  uint64_t Recorded;
  uint64_t UlcpFree;
};

const PinnedDigest PinnedDigests[] = {
    {"openldap", 0xd8ac3592e2ddfc30, 0xd8abd4c2f056645b},
    {"mysql", 0xb79e0eb4bc066778, 0xd334ae6166a61eba},
    {"pbzip2", 0xc9d8adb5b75914b0, 0x694603e983da89bd},
    {"transmissionBT", 0x822ba35aa0899800, 0xd16c9584b12ae807},
    {"handbrake", 0x9cfd3986f70d138e, 0x476b81c4c259bcf2},
    {"blackscholes", 0xa51c506b8008dcc6, 0xa51c506b8008dcc6},
    {"bodytrack", 0xddf6d0edadd1926, 0x64fd596ccef62151},
    {"canneal", 0x26cfd90f1d06ce5e, 0xc3a6314a38208e1c},
    {"dedup", 0x123f58e437670cc7, 0x3764474e01d741c},
    {"facesim", 0x2ea3738d7820b58f, 0x76a791a1ef1b5bbe},
    {"ferret", 0x692a54c0b4e07933, 0x20b24be6d4c328de},
    {"fluidanimate", 0x4fe3f8e20fc8349b, 0xbb30af340c825df2},
    {"streamcluster", 0x1e7ccb8a69e645f2, 0x7d9c63a17254cac9},
    {"swaptions", 0x84b24e560b62f62f, 0x8b77a61eec5fb947},
    {"vips", 0xc50e1ff2050bb0a5, 0x2e2148d10d87f34c},
    {"x264", 0x5cb18eb27de1305f, 0xe6653873c5a748fb},
    {"rwmix", 0x78981805134902a1, 0x79c9b3c83c47c596},
};

void PrintTo(const PinnedDigest &P, std::ostream *OS) { *OS << P.App; }

class ReplayDigestTest : public testing::TestWithParam<PinnedDigest> {};

const AppModel *findApp(const std::string &Name) {
  for (const auto *Apps : {&allApps(), &syntheticApps()})
    for (const AppModel &M : *Apps)
      if (M.Name == Name)
        return &M;
  return nullptr;
}

} // namespace

TEST(ReplayDigestTableTest, CoversEveryModel) {
  size_t Models = allApps().size() + syntheticApps().size();
  ASSERT_EQ(std::size(PinnedDigests), Models);
  for (const PinnedDigest &P : PinnedDigests)
    EXPECT_NE(findApp(P.App), nullptr) << P.App;
}

TEST_P(ReplayDigestTest, MatchesPinnedAnswers) {
  const PinnedDigest &P = GetParam();
  const AppModel *M = findApp(P.App);
  ASSERT_NE(M, nullptr) << P.App;
  Trace Tr = generateWorkload(M->Factory(4, 1.0));
  ASSERT_TRUE(recordGrantSchedule(Tr, 42).ok()) << P.App;
  Trace Free = transformTrace(Tr, CsIndex::build(Tr)).Transformed;

  uint64_t Recorded = digestAllSchemes(Tr);
  uint64_t UlcpFree = digestAllSchemes(Free);
  EXPECT_EQ(Recorded, P.Recorded)
      << P.App << " recorded: 0x" << std::hex << Recorded;
  EXPECT_EQ(UlcpFree, P.UlcpFree)
      << P.App << " ULCP-free: 0x" << std::hex << UlcpFree;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, ReplayDigestTest, testing::ValuesIn(PinnedDigests),
    [](const testing::TestParamInfo<PinnedDigest> &Info) {
      return std::string(Info.param.App);
    });
