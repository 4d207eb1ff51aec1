//===- tests/ConditionTest.cpp - recorded condition variables ---------------===//
//
// Appendix Case 1: pthread_cond_wait's unlock/sleep/relock dance
// produces extra lock/unlock pairs — frequently null-locks.  The
// RecordingCondition wrapper must reproduce that trace shape from real
// threads.
//
//===----------------------------------------------------------------------===//

#include "runtime/Instrument.h"

#include "core/PerfPlay.h"
#include "detect/CriticalSection.h"
#include "detect/Detector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace perfplay;

namespace {

/// Finishes \p R, failing the test on a recording error.
Trace finishOk(Recorder &R) {
  Expected<Trace> Tr = R.finish();
  EXPECT_TRUE(Tr.ok()) << Tr.message();
  return Tr.ok() ? std::move(*Tr) : Trace();
}

/// One waiter parked on a condition; one setter flips the flag.  The
/// waiter always registers first, so it is thread 0.
Trace recordCondWait() {
  Recorder R;
  RecordingMutex Mu(R, "L");
  RecordingCondition Cond;
  SharedVar<uint64_t> Flag(R, "cond_flag");
  std::atomic<bool> Ready{false};
  std::atomic<bool> WaiterRegistered{false};

  std::thread Waiter([&] {
    ThreadId T = R.registerThread();
    WaiterRegistered.store(true);
    Mu.lock(T, PERFPLAY_CODE_SITE(R, 30, 40));
    Cond.wait(Mu, T, [&] { return Ready.load(); },
              PERFPLAY_CODE_SITE(R, 35, 40));
    Flag.load(T);
    Mu.unlock(T);
  });
  std::thread Setter([&] {
    while (!WaiterRegistered.load())
      std::this_thread::yield();
    ThreadId T = R.registerThread();
    // Give the waiter a chance to park first (timing is best-effort;
    // the trace shape below holds either way).
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Mu.lock(T, PERFPLAY_CODE_SITE(R, 50, 55));
    Flag.store(T, 1);
    Ready.store(true);
    Mu.unlock(T);
    Cond.notifyAll(T);
  });
  Waiter.join();
  Setter.join();
  return finishOk(R);
}

} // namespace

TEST(ConditionTest, WaitSplitsCriticalSection) {
  Trace Tr = recordCondWait();
  ASSERT_EQ(Tr.validate(), "");
  // The waiter (thread 0) shows two critical sections: before the wait
  // and after the wake-up — Case 1's extra lock/unlock pair.
  EXPECT_EQ(Tr.numCriticalSections(0), 2u);
  EXPECT_EQ(Tr.numCriticalSections(1), 1u);
}

TEST(ConditionTest, FirstSectionIsNullLock) {
  Trace Tr = recordCondWait();
  CsIndex Index = CsIndex::build(Tr);
  // The waiter's pre-wait section touches no shared data: a null-lock
  // half of the Case 1 pattern.
  const CriticalSection &PreWait = Index.byGlobalId(0);
  EXPECT_TRUE(Index.reads(PreWait).empty());
  EXPECT_TRUE(Index.writes(PreWait).empty());
}

TEST(ConditionTest, SleepNotChargedAsComputation) {
  Trace Tr = recordCondWait();
  // The waiter slept ~5ms; selective recording must not have turned
  // that into Compute cost (its total compute stays well under 5ms).
  TimeNs WaiterCompute = 0;
  for (const Event &E : Tr.Threads[0].Events)
    if (E.Kind == EventKind::Compute)
      WaiterCompute += E.Cost;
  EXPECT_LT(WaiterCompute, 5000000u);
}

TEST(ConditionTest, TraceFeedsPipeline) {
  Trace Tr = recordCondWait();
  PipelineResult R = runPerfPlay(Tr);
  ASSERT_TRUE(R.ok()) << R.Error;
  // The null-lock half is detectable when paired cross-thread.
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Tr.buildCsIndex();
  CsIndex Index = CsIndex::build(Tr);
  UlcpCounts C = detectUlcps(Tr, Index, Opts).Counts;
  EXPECT_GT(C.NullLock, 0u);
}

//===----------------------------------------------------------------------===//
// Named (recorded) condvars
//===----------------------------------------------------------------------===//

namespace {

/// recordCondWait with a named condvar: waits and wakes additionally
/// emit the ordering events.
Trace recordNamedCondWait() {
  Recorder R;
  RecordingMutex Mu(R, "L");
  RecordingCondition Cond(R, "cv");
  SharedVar<uint64_t> Flag(R, "named_cond_flag");
  std::atomic<bool> Ready{false};
  std::atomic<bool> WaiterRegistered{false};

  std::thread Waiter([&] {
    ThreadId T = R.registerThread();
    WaiterRegistered.store(true);
    Mu.lock(T, PERFPLAY_CODE_SITE(R, 30, 40));
    Cond.wait(Mu, T, [&] { return Ready.load(); },
              PERFPLAY_CODE_SITE(R, 35, 40));
    Flag.load(T);
    Mu.unlock(T);
  });
  std::thread Setter([&] {
    while (!WaiterRegistered.load())
      std::this_thread::yield();
    ThreadId T = R.registerThread();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Mu.lock(T, PERFPLAY_CODE_SITE(R, 50, 55));
    Flag.store(T, 1);
    Ready.store(true);
    Mu.unlock(T);
    Cond.notifyAll(T);
  });
  Waiter.join();
  Setter.join();
  return finishOk(R);
}

} // namespace

TEST(ConditionTest, NamedCondvarEmitsOrderingEvents) {
  Trace Tr = recordNamedCondWait();
  ASSERT_EQ(Tr.validate(), "");

  // The condvar is registered in the lock table.
  bool HasCv = false;
  for (LockId L = 0; L != Tr.Locks.size(); ++L)
    HasCv |= Tr.lockName(L) == "cv";
  EXPECT_TRUE(HasCv);

  unsigned Waits = 0, Broadcasts = 0, Signals = 0;
  for (const ThreadTrace &T : Tr.Threads)
    for (const Event &E : T.Events) {
      Waits += E.Kind == EventKind::CondWait;
      Broadcasts += E.Kind == EventKind::CondBroadcast;
      Signals += E.Kind == EventKind::CondSignal;
    }
  EXPECT_EQ(Waits, 1u);
  EXPECT_EQ(Broadcasts, 1u);
  EXPECT_EQ(Signals, 0u);
}

TEST(ConditionTest, NotifyOneEmitsSignal) {
  Recorder R;
  RecordingCondition Cond(R, "cv");
  ThreadId T = R.registerThread();
  Cond.notifyOne(T);
  Trace Tr = finishOk(R);
  ASSERT_EQ(Tr.validate(), "");
  unsigned Signals = 0;
  for (const Event &E : Tr.Threads[0].Events)
    Signals += E.Kind == EventKind::CondSignal;
  EXPECT_EQ(Signals, 1u);
}

TEST(ConditionTest, NamedCondvarTraceFeedsPipeline) {
  Trace Tr = recordNamedCondWait();
  PipelineResult R = runPerfPlay(Tr);
  ASSERT_TRUE(R.ok()) << R.Error;
}
