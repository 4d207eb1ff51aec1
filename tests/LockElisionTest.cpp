//===- tests/LockElisionTest.cpp - LE baseline tests -------------------------===//

#include "sim/LockElision.h"

#include "detect/Classify.h"
#include "sim/Replayer.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace perfplay;

namespace {

LockElisionOptions noFalseAborts() {
  LockElisionOptions O;
  O.FalseAbortRate = 0.0;
  return O;
}

/// Two read-only sections contending on one lock.
Trace readersTrace() {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1}) {
    B.compute(T, 100);
    B.beginCs(T, Mu);
    B.read(T, 1, 7);
    B.compute(T, 1000);
    B.endCs(T);
  }
  return B.finish();
}

/// Two sections with a real write-write conflict.
Trace conflictTrace() {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.write(T0, 9, 1);
  B.compute(T0, 1000);
  B.endCs(T0);
  B.compute(T1, 100);
  B.beginCs(T1, Mu);
  B.write(T1, 9, 2);
  B.compute(T1, 1000);
  B.endCs(T1);
  return B.finish();
}

} // namespace

TEST(LockElisionTest, ReadersRunFullyParallel) {
  Trace Tr = readersTrace();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  LockElisionResult Le = simulateLockElision(Tr, Index, noFalseAborts());
  EXPECT_EQ(Le.ConflictAborts, 0u);
  EXPECT_EQ(Le.Fallbacks, 0u);
  // No lock ops, no waiting: both threads finish at gap + mem + body.
  ReplayResult Orig = replayTrace(Tr, ReplayOptions());
  EXPECT_LT(Le.TotalTime, Orig.TotalTime);
}

TEST(LockElisionTest, RealConflictAborts) {
  Trace Tr = conflictTrace();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  LockElisionResult Le = simulateLockElision(Tr, Index, noFalseAborts());
  EXPECT_GT(Le.ConflictAborts, 0u);
  EXPECT_GT(Le.WastedNs, 0u);
}

TEST(LockElisionTest, RetriesExhaustedFallBackToLock) {
  Trace Tr = conflictTrace();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  LockElisionOptions Opts = noFalseAborts();
  Opts.MaxRetries = 1; // First abort already falls back.
  LockElisionResult Le = simulateLockElision(Tr, Index, Opts);
  EXPECT_GT(Le.Fallbacks, 0u);
}

TEST(LockElisionTest, FalseAbortsInjected) {
  Trace Tr = readersTrace();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  LockElisionOptions Opts;
  Opts.FalseAbortRate = 1.0; // Every attempt aborts falsely.
  Opts.MaxRetries = 2;
  LockElisionResult Le = simulateLockElision(Tr, Index, Opts);
  EXPECT_GT(Le.FalseAborts, 0u);
  EXPECT_EQ(Le.Fallbacks, 2u); // Both sections end up taking the lock.
}

TEST(LockElisionTest, DeterministicForFixedSeed) {
  Trace Tr = generateWorkload(makePbzip2(2, 0.5));
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  LockElisionOptions Opts;
  Opts.Seed = 77;
  LockElisionResult A = simulateLockElision(Tr, Index, Opts);
  LockElisionResult B = simulateLockElision(Tr, Index, Opts);
  EXPECT_EQ(A.TotalTime, B.TotalTime);
  EXPECT_EQ(A.ConflictAborts, B.ConflictAborts);
  EXPECT_EQ(A.FalseAborts, B.FalseAborts);
}

TEST(LockElisionTest, BenignConflictsStillAbort) {
  // Hardware LE cannot recognize benign (redundant) writes: they abort
  // even though PERFPLAY classifies them as parallelizable.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (ThreadId T : {T0, T1}) {
    B.beginCs(T, Mu);
    B.write(T, 5, 42); // Identical stores: benign.
    B.compute(T, 500);
    B.endCs(T);
  }
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  LockElisionResult Le = simulateLockElision(Tr, Index, noFalseAborts());
  EXPECT_GT(Le.ConflictAborts, 0u);
}

TEST(LockElisionTest, UlcpRichAppBeatsLockedReplay) {
  Trace Tr = generateWorkload(makeOpenldap(2, 0.5));
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  LockElisionResult Le = simulateLockElision(Tr, Index, noFalseAborts());
  ReplayResult Orig = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(Orig.ok());
  EXPECT_LT(Le.TotalTime, Orig.TotalTime)
      << "eliding ULCP-dominated locks must help";
}

//===----------------------------------------------------------------------===//
// HTM-style speculation
//===----------------------------------------------------------------------===//

namespace {

/// One section whose read footprint has \p Addrs distinct addresses.
Trace wideFootprintTrace(unsigned Addrs) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  B.beginCs(T0, Mu);
  for (unsigned A = 0; A != Addrs; ++A)
    B.read(T0, 100 + A, 0);
  B.compute(T0, 500);
  B.endCs(T0);
  return B.finish();
}

} // namespace

TEST(HtmTest, ReadersCommitWithoutAborts) {
  Trace Tr = readersTrace();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  HtmResult Htm = simulateHtm(Tr, Index);
  EXPECT_EQ(Htm.ConflictAborts, 0u);
  EXPECT_EQ(Htm.CapacityAborts, 0u);
  EXPECT_EQ(Htm.InterruptAborts, 0u); // default rate is 0
  EXPECT_EQ(Htm.Fallbacks, 0u);
  EXPECT_LT(Htm.TotalTime, replayTrace(Tr, ReplayOptions()).TotalTime);
}

TEST(HtmTest, CapacityAbortGoesStraightToFallback) {
  Trace Tr = wideFootprintTrace(8);
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  HtmOptions Opts;
  Opts.Capacity = 4; // footprint 8 > 4: deterministic overflow
  HtmResult Htm = simulateHtm(Tr, Index, Opts);
  // Retrying a capacity abort is futile: exactly one wasted attempt,
  // then the lock fallback — regardless of the retry budget.
  EXPECT_EQ(Htm.CapacityAborts, 1u);
  EXPECT_EQ(Htm.Fallbacks, 1u);
  EXPECT_GT(Htm.WastedNs, 0u);

  // The same trace under a big enough buffer commits first try.
  Opts.Capacity = 64;
  HtmResult Fits = simulateHtm(Tr, Index, Opts);
  EXPECT_EQ(Fits.CapacityAborts, 0u);
  EXPECT_EQ(Fits.Fallbacks, 0u);
  EXPECT_LT(Fits.TotalTime, Htm.TotalTime);
}

TEST(HtmTest, ConflictRetriesThenFallsBack) {
  Trace Tr = conflictTrace();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  HtmOptions Opts;
  Opts.MaxRetries = 1; // first conflict abort already falls back
  HtmResult Htm = simulateHtm(Tr, Index, Opts);
  EXPECT_GT(Htm.ConflictAborts, 0u);
  EXPECT_GT(Htm.Fallbacks, 0u);
  EXPECT_EQ(Htm.CapacityAborts, 0u);
}

TEST(HtmTest, InterruptAbortsInjected) {
  Trace Tr = readersTrace();
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  HtmOptions Opts;
  Opts.InterruptAbortRate = 1.0; // every attempt is interrupted
  Opts.MaxRetries = 2;
  HtmResult Htm = simulateHtm(Tr, Index, Opts);
  EXPECT_GT(Htm.InterruptAborts, 0u);
  EXPECT_EQ(Htm.Fallbacks, 2u); // both sections end up taking the lock
}

TEST(HtmTest, DeterministicForFixedSeed) {
  Trace Tr = generateWorkload(makePbzip2(2, 0.5));
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);
  HtmOptions Opts;
  Opts.InterruptAbortRate = 0.05;
  Opts.Seed = 77;
  HtmResult A = simulateHtm(Tr, Index, Opts);
  HtmResult B = simulateHtm(Tr, Index, Opts);
  EXPECT_EQ(A.TotalTime, B.TotalTime);
  EXPECT_EQ(A.ConflictAborts, B.ConflictAborts);
  EXPECT_EQ(A.InterruptAborts, B.InterruptAborts);
  EXPECT_EQ(A.Fallbacks, B.Fallbacks);
  EXPECT_EQ(A.ThreadFinish, B.ThreadFinish);
}

//===----------------------------------------------------------------------===//
// speculate against the quadratic reference scan
//===----------------------------------------------------------------------===//

namespace {

/// Body cost of a section from its own events: compute + memory +
/// condvar traffic between acquire and release, a failed interior
/// trylock paying its failure cost.
TimeNs referenceBodyCost(const Trace &Tr, const CriticalSection &Cs,
                         const CostModel &Costs) {
  TimeNs Total = 0;
  const auto &Events = Tr.Threads[Cs.Ref.Thread].Events;
  for (size_t I = Cs.AcquireIdx + 1; I != Cs.ReleaseIdx; ++I) {
    const Event &E = Events[I];
    if (E.Kind == EventKind::Compute)
      Total += E.cost();
    else if (E.Kind == EventKind::Read || E.Kind == EventKind::Write)
      Total += Costs.MemAccess;
    else if (E.Kind == EventKind::TryAcquire && !E.TrySucceeded)
      Total += Costs.TryLockFail;
    else if (E.Kind == EventKind::CondWait)
      Total += Costs.CondWait;
    else if (E.Kind == EventKind::CondSignal ||
             E.Kind == EventKind::CondBroadcast)
      Total += Costs.CondSignal;
  }
  return Total;
}

/// The straightforward model \ref speculate must reproduce: for every
/// section and attempt, scan every earlier-placed section of the lock
/// and test it for overlap, with each body cost walked from the
/// section's events.  Also checks that body cost equals the solo
/// interval's length for every section (\p BodyMismatches counts the
/// sections where it does not).
SpecResult referenceSpeculate(const Trace &Tr, const CsIndex &Index,
                              const SpecModel &M, size_t &BodyMismatches) {
  struct Spec {
    TimeNs Start = 0;
    TimeNs End = 0;
  };
  SpecResult Result;
  Result.ThreadFinish.assign(Tr.numThreads(), 0);
  std::vector<Spec> Specs(Index.size());
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    TimeNs Clock = 0;
    uint32_t NextIndex = 0;
    std::vector<uint32_t> Open;
    for (const Event &E : Tr.Threads[T].Events) {
      if (E.Kind == EventKind::Compute)
        Clock += E.cost();
      else if (E.Kind == EventKind::Read || E.Kind == EventKind::Write)
        Clock += M.Costs.MemAccess;
      else if (E.Kind == EventKind::CondWait)
        Clock += M.Costs.CondWait;
      else if (E.Kind == EventKind::CondSignal ||
               E.Kind == EventKind::CondBroadcast)
        Clock += M.Costs.CondSignal;
      else if (E.Kind == EventKind::LockRelease) {
        Specs[Open.back()].End = Clock;
        Open.pop_back();
      } else if (isSectionOpen(E)) {
        uint32_t Cs = Tr.globalCsId(CsRef{T, NextIndex++});
        Specs[Cs].Start = Clock;
        Open.push_back(Cs);
      } else if (E.Kind == EventKind::TryAcquire)
        Clock += M.Costs.TryLockFail;
    }
    Result.ThreadFinish[T] = Clock;
  }

  Rng R(M.Seed);
  std::vector<TimeNs> Shift(Tr.numThreads(), 0);
  std::vector<TimeNs> LockFreeAt(Index.numLocks(), 0);
  BodyMismatches = 0;
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    std::vector<uint32_t> Order = Index.sectionsOfLock(L);
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       return Specs[A].Start < Specs[B].Start;
                     });
    for (size_t I = 0; I != Order.size(); ++I) {
      uint32_t Cs = Order[I];
      const CriticalSection &Section = Index.byGlobalId(Cs);
      ThreadId T = Section.Ref.Thread;
      TimeNs Start = Specs[Cs].Start + Shift[T];
      TimeNs End = Specs[Cs].End + Shift[T];
      TimeNs Body = referenceBodyCost(Tr, Section, M.Costs);
      if (Body != Specs[Cs].End - Specs[Cs].Start)
        ++BodyMismatches;
      const bool Overflows =
          Index.reads(Section).size() + Index.writes(Section).size() >
          M.Capacity;
      for (unsigned Attempt = 0;; ++Attempt) {
        bool Conflict = false;
        for (size_t J = 0; J != I && !Overflows && !Conflict; ++J) {
          const CriticalSection &Other = Index.byGlobalId(Order[J]);
          if (Other.Ref.Thread != T &&
              Specs[Order[J]].End + Shift[Other.Ref.Thread] > Start)
            Conflict = classifyPairStatic(Index, Other, Section) ==
                       UlcpKind::TrueContention;
        }
        bool Random =
            !Overflows && !Conflict && R.nextBool(M.RandomAbortRate);
        if (!Overflows && !Conflict && !Random)
          break;
        if (Overflows)
          ++Result.CapacityAborts;
        else if (Conflict)
          ++Result.ConflictAborts;
        else
          ++Result.RandomAborts;
        TimeNs Redo = Body + M.AbortPenalty;
        Result.WastedNs += Redo;
        Shift[T] += Redo;
        Start += Redo;
        End += Redo;
        if (Overflows || Attempt + 1 >= M.MaxRetries) {
          ++Result.Fallbacks;
          TimeNs Grant = std::max(Start, LockFreeAt[L]);
          TimeNs LockOps = M.Costs.LockAcquire + M.Costs.LockRelease;
          Shift[T] += Grant - Start + LockOps;
          Start = Grant;
          End = Grant + Body + LockOps;
          LockFreeAt[L] = End;
          break;
        }
      }
      Specs[Cs].Start = Start - Shift[T];
      Specs[Cs].End = End - Shift[T];
    }
  }
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    Result.ThreadFinish[T] += Shift[T];
    Result.TotalTime = std::max(Result.TotalTime, Result.ThreadFinish[T]);
  }
  return Result;
}

/// The SLE preset at LockElisionOptions' defaults.
SpecModel slePreset() {
  LockElisionOptions O;
  SpecModel M;
  M.AbortPenalty = O.AbortPenalty;
  M.MaxRetries = O.MaxRetries;
  M.RandomAbortRate = O.FalseAbortRate;
  return M;
}

/// The HTM preset at HtmOptions' defaults.
SpecModel htmPreset() {
  HtmOptions O;
  SpecModel M;
  M.Capacity = O.Capacity;
  M.AbortPenalty = O.AbortPenalty;
  M.MaxRetries = O.MaxRetries;
  M.RandomAbortRate = O.InterruptAbortRate;
  return M;
}

void expectSameResult(const SpecResult &Got, const SpecResult &Want) {
  EXPECT_EQ(Got.TotalTime, Want.TotalTime);
  EXPECT_EQ(Got.ThreadFinish, Want.ThreadFinish);
  EXPECT_EQ(Got.ConflictAborts, Want.ConflictAborts);
  EXPECT_EQ(Got.CapacityAborts, Want.CapacityAborts);
  EXPECT_EQ(Got.RandomAborts, Want.RandomAborts);
  EXPECT_EQ(Got.Fallbacks, Want.Fallbacks);
  EXPECT_EQ(Got.WastedNs, Want.WastedNs);
}

} // namespace

TEST(SpeculateTest, MatchesQuadraticScanOnEveryApp) {
  // The app models touch at most two addresses per section, so only a
  // capacity of one overflows; with a nonzero interrupt rate it drives
  // the capacity and random-abort paths the HTM defaults never reach.
  SpecModel Stressed = htmPreset();
  Stressed.Capacity = 1;
  Stressed.RandomAbortRate = 0.05;
  const std::pair<const char *, SpecModel> Models[] = {
      {"sle", slePreset()}, {"htm", htmPreset()}, {"htm-stressed", Stressed}};
  // rwmix adds reader sections, failed trylocks and condvar traffic.
  std::vector<AppModel> Apps = allApps();
  Apps.insert(Apps.end(), syntheticApps().begin(), syntheticApps().end());
  SpecResult Seen; // Sums over the sweep: every path must be taken.
  for (const AppModel &App : Apps)
    for (unsigned Threads : {2u, 4u}) {
      Trace Tr = generateWorkload(App.Factory(Threads, 4.0));
      recordGrantSchedule(Tr, 3);
      CsIndex Index = CsIndex::build(Tr);
      for (const auto &[Name, Base] : Models)
        for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
          SCOPED_TRACE(App.Name + "@" + std::to_string(Threads) + " " +
                       Name + " seed " + std::to_string(Seed));
          SpecModel M = Base;
          M.Seed = Seed;
          size_t BodyMismatches = 0;
          SpecResult Want = referenceSpeculate(Tr, Index, M, BodyMismatches);
          ASSERT_EQ(BodyMismatches, 0u) << "body cost != solo interval";
          expectSameResult(speculate(Tr, Index, M), Want);
          Seen.ConflictAborts += Want.ConflictAborts;
          Seen.CapacityAborts += Want.CapacityAborts;
          Seen.RandomAborts += Want.RandomAborts;
          Seen.Fallbacks += Want.Fallbacks;
        }
    }
  EXPECT_GT(Seen.ConflictAborts, 0u);
  EXPECT_GT(Seen.CapacityAborts, 0u);
  EXPECT_GT(Seen.RandomAborts, 0u);
  EXPECT_GT(Seen.Fallbacks, 0u);
}

TEST(SpeculateTest, WrappersCopyEveryField) {
  Trace Tr = generateWorkload(makeOpenldap(4, 0.5));
  recordGrantSchedule(Tr, 3);
  CsIndex Index = CsIndex::build(Tr);

  LockElisionOptions LeOpts;
  LeOpts.FalseAbortRate = 0.1;
  LeOpts.Seed = 5;
  SpecModel Sle = slePreset();
  Sle.RandomAbortRate = 0.1;
  Sle.Seed = 5;
  SpecResult S = speculate(Tr, Index, Sle);
  LockElisionResult Le = simulateLockElision(Tr, Index, LeOpts);
  EXPECT_EQ(Le.TotalTime, S.TotalTime);
  EXPECT_EQ(Le.ThreadFinish, S.ThreadFinish);
  EXPECT_EQ(Le.ConflictAborts, S.ConflictAborts);
  EXPECT_EQ(Le.FalseAborts, S.RandomAborts);
  EXPECT_EQ(Le.Fallbacks, S.Fallbacks);
  EXPECT_EQ(Le.WastedNs, S.WastedNs);
  EXPECT_EQ(S.CapacityAborts, 0u) << "SLE capacity is unbounded";
  EXPECT_EQ(speculate(Tr, Index, SpecModel()).TotalTime,
            simulateLockElision(Tr, Index).TotalTime)
      << "a default model is the default SLE preset";

  HtmOptions HtmOpts;
  HtmOpts.Capacity = 1;
  HtmOpts.InterruptAbortRate = 0.1;
  HtmOpts.Seed = 5;
  SpecModel Htm = htmPreset();
  Htm.Capacity = 1;
  Htm.RandomAbortRate = 0.1;
  Htm.Seed = 5;
  S = speculate(Tr, Index, Htm);
  HtmResult H = simulateHtm(Tr, Index, HtmOpts);
  EXPECT_EQ(H.TotalTime, S.TotalTime);
  EXPECT_EQ(H.ThreadFinish, S.ThreadFinish);
  EXPECT_EQ(H.ConflictAborts, S.ConflictAborts);
  EXPECT_EQ(H.CapacityAborts, S.CapacityAborts);
  EXPECT_EQ(H.InterruptAborts, S.RandomAborts);
  EXPECT_EQ(H.Fallbacks, S.Fallbacks);
  EXPECT_EQ(H.WastedNs, S.WastedNs);
}

TEST(SpeculateTest, NestedSameLockSectionStillRunningIsSeen) {
  // T0 re-enters Mu: the inner section ends long before the outer one,
  // so T0's ends on Mu are not monotone in start order.  T1 starts
  // after the inner section ended but while the outer one still runs,
  // and its write conflicts with the outer one's.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.beginCs(T0, Mu);
  B.compute(T0, 10);
  B.endCs(T0);
  B.write(T0, 9, 1);
  B.compute(T0, 1000);
  B.endCs(T0);
  B.compute(T1, 500);
  B.beginCs(T1, Mu);
  B.write(T1, 9, 2);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  SpecModel M = slePreset();
  M.RandomAbortRate = 0.0;
  size_t BodyMismatches = 0;
  SpecResult Want = referenceSpeculate(Tr, Index, M, BodyMismatches);
  EXPECT_EQ(BodyMismatches, 0u);
  EXPECT_GT(Want.ConflictAborts, 0u);
  expectSameResult(speculate(Tr, Index, M), Want);
}

TEST(SpeculateTest, SectionEndingAtStartIsNotRunning) {
  // T0's section ends exactly when T1's conflicting one starts: the
  // intervals are half-open, so they do not overlap.
  const TimeNs Body = CostModel().MemAccess + 500;
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.write(T0, 9, 1);
  B.compute(T0, 500);
  B.endCs(T0);
  B.compute(T1, Body);
  B.beginCs(T1, Mu);
  B.write(T1, 9, 2);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  SpecModel M = slePreset();
  M.RandomAbortRate = 0.0;
  SpecResult Got = speculate(Tr, Index, M);
  EXPECT_EQ(Got.ConflictAborts, 0u);
  EXPECT_EQ(Got.TotalTime, Body + CostModel().MemAccess);
}
