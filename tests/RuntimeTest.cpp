//===- tests/RuntimeTest.cpp - live recorder tests ---------------------------===//

#include "runtime/Instrument.h"

#include "core/PerfPlay.h"
#include "detect/Detector.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace perfplay;

namespace {

/// Finishes \p R, failing the test on a recording error.
Trace finishOk(Recorder &R) {
  Expected<Trace> Tr = R.finish();
  EXPECT_TRUE(Tr.ok()) << Tr.message();
  return Tr.ok() ? std::move(*Tr) : Trace();
}

} // namespace

TEST(RecorderTest, RegistersLocksAndSites) {
  Recorder R;
  LockId A = R.registerLock("a");
  LockId B = R.registerLock("b", /*IsSpin=*/true);
  EXPECT_NE(A, B);
  CodeSiteId S1 = R.registerSite("f.cc", "f", 1, 10);
  CodeSiteId S2 = R.registerSite("f.cc", "f", 1, 10); // Deduplicated.
  CodeSiteId S3 = R.registerSite("f.cc", "g", 1, 10);
  EXPECT_EQ(S1, S2);
  EXPECT_NE(S1, S3);
  R.registerThread();
  Trace Tr = finishOk(R);
  EXPECT_EQ(Tr.Locks.size(), 2u);
  EXPECT_TRUE(Tr.Locks[1].IsSpin);
  EXPECT_EQ(Tr.Sites.size(), 2u);
}

TEST(RecorderTest, SingleThreadEventSequence) {
  Recorder R;
  RecordingMutex Mu(R, "mu");
  SharedVar<uint64_t> Read(R, "read", 42);
  SharedVar<uint64_t> Added(R, "added");
  CodeSiteId Site = R.registerSite("x.cc", "f", 5, 9);
  ThreadId T = R.registerThread();
  Mu.lock(T, Site);
  Read.load(T);
  Added.fetchAdd(T, 1);
  Mu.unlock(T);
  Trace Tr = finishOk(R);
  ASSERT_EQ(Tr.validate(), "");
  // Kinds in order, ignoring interleaved Compute events.
  std::vector<EventKind> Kinds;
  for (const Event &E : Tr.Threads[0].Events)
    if (E.Kind != EventKind::Compute)
      Kinds.push_back(E.Kind);
  EXPECT_EQ(Kinds, (std::vector<EventKind>{
                       EventKind::ThreadStart, EventKind::LockAcquire,
                       EventKind::Read, EventKind::Write,
                       EventKind::LockRelease, EventKind::ThreadEnd}));
  // Read/write payloads survive.
  for (const Event &E : Tr.Threads[0].Events) {
    if (E.Kind == EventKind::Read) {
      EXPECT_EQ(E.addr(), Read.addr());
      EXPECT_EQ(E.value(), 42u);
    }
    if (E.Kind == EventKind::Write) {
      EXPECT_EQ(E.addr(), Added.addr());
      EXPECT_EQ(E.Op, WriteOpKind::Add);
    }
  }
}

// Read/Write records pack a 64-bit address across two 32-bit fields
// and the WriteOpKind into the flags byte; all of it must survive the
// ring and the flusher.
TEST(RecorderTest, WideAccessesAndEveryWriteOpSurviveTheRing) {
  const AddrId Addr = 0x123456789abcull;
  const uint64_t Value = 0xfedcba9876543210ull;
  const WriteOpKind Ops[] = {WriteOpKind::Store, WriteOpKind::Add,
                             WriteOpKind::Or, WriteOpKind::And,
                             WriteOpKind::Xor};
  Recorder R;
  R.registerThread();
  R.access(record::RecOp::Read, Addr, Value);
  for (WriteOpKind Op : Ops)
    R.access(record::RecOp::Write, Addr + static_cast<AddrId>(Op),
             Value - static_cast<uint64_t>(Op), Op);
  Trace Tr = finishOk(R);
  ASSERT_EQ(Tr.validate(), "");

  std::vector<Event> Accesses;
  for (const Event &E : Tr.Threads[0].Events)
    if (E.Kind == EventKind::Read || E.Kind == EventKind::Write)
      Accesses.push_back(E);
  ASSERT_EQ(Accesses.size(), 6u);
  EXPECT_EQ(Accesses[0].Kind, EventKind::Read);
  EXPECT_EQ(Accesses[0].addr(), Addr);
  EXPECT_EQ(Accesses[0].value(), Value);
  for (size_t I = 0; I != 5; ++I) {
    const Event &E = Accesses[I + 1];
    EXPECT_EQ(E.Kind, EventKind::Write);
    EXPECT_EQ(E.Op, Ops[I]);
    EXPECT_EQ(E.addr(), Addr + I);
    EXPECT_EQ(E.value(), Value - I);
  }
}

TEST(RecorderTest, GrantScheduleMatchesAcquisitionOrder) {
  Recorder R;
  RecordingMutex Mu(R, "mu");
  ThreadId T = R.registerThread();
  for (int I = 0; I != 3; ++I) {
    Mu.lock(T);
    Mu.unlock(T);
  }
  Trace Tr = finishOk(R);
  ASSERT_EQ(Tr.LockSchedule.size(), 1u);
  ASSERT_EQ(Tr.LockSchedule[0].size(), 3u);
  for (uint32_t I = 0; I != 3; ++I) {
    EXPECT_EQ(Tr.LockSchedule[0][I].Thread, 0u);
    EXPECT_EQ(Tr.LockSchedule[0][I].Index, I);
  }
}

namespace {

/// A real multi-threaded recorded run: Workers increment a shared
/// counter under a mutex and read a shared flag.
Trace recordLiveRun(unsigned NumThreads, unsigned Iters) {
  Recorder R;
  RecordingMutex Mu(R, "counter_mutex");
  SharedVar<uint64_t> Counter(R, "counter");
  SharedVar<uint64_t> Flag(R, "flag");
  CodeSiteId Site = R.registerSite("live.cc", "worker", 10, 20);

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&] {
      ThreadId T = R.registerThread();
      for (unsigned K = 0; K != Iters; ++K) {
        RecordedSection Guard(Mu, T, Site);
        Flag.load(T);
        Counter.fetchAdd(T, 1);
      }
    });
  for (auto &Th : Threads)
    Th.join();
  return finishOk(R);
}

} // namespace

TEST(RecorderTest, LiveMultiThreadedRunProducesValidTrace) {
  Trace Tr = recordLiveRun(4, 8);
  EXPECT_EQ(Tr.validate(), "");
  EXPECT_EQ(Tr.numThreads(), 4u);
  EXPECT_EQ(Tr.numCriticalSections(), 4u * 8u);
  // Every lock acquisition is in the schedule exactly once.
  ASSERT_EQ(Tr.LockSchedule.size(), 1u);
  EXPECT_EQ(Tr.LockSchedule[0].size(), 4u * 8u);
}

TEST(RecorderTest, LiveTraceFeedsPipeline) {
  Trace Tr = recordLiveRun(3, 5);
  PipelineOptions Opts;
  PipelineResult Result = runPerfPlay(Tr, Opts);
  ASSERT_TRUE(Result.ok()) << Result.Error;
  // fetchAdd sections are mutually benign (commutative) but the
  // interleaved flag reads observing a racing counter... the counter
  // add does not touch the flag: pairs are (read flag + add counter)
  // vs same: conflicting on counter -> benign adds, reads of flag
  // constant: overall benign or read-read.
  EXPECT_GT(Result.Detection.Counts.totalUnnecessary(), 0u);
}

TEST(RecorderTest, ComputeCostsArePositive) {
  Recorder R;
  RecordingMutex Mu(R, "mu");
  ThreadId T = R.registerThread();
  // Burn a little real time so selective recording captures it.
  volatile uint64_t Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink += I;
  Mu.lock(T);
  Mu.unlock(T);
  Trace Tr = finishOk(R);
  TimeNs TotalCompute = 0;
  for (const Event &E : Tr.Threads[0].Events)
    if (E.Kind == EventKind::Compute)
      TotalCompute += E.cost();
  EXPECT_GT(TotalCompute, 0u);
}

TEST(SharedVarTest, LoadStoreRoundTrip) {
  Recorder R;
  ThreadId T = R.registerThread();
  SharedVar<uint64_t> V(R, "v", 5);
  EXPECT_EQ(V.load(T), 5u);
  V.store(T, 9);
  EXPECT_EQ(V.load(T), 9u);
  EXPECT_EQ(V.fetchAdd(T, 3), 9u);
  EXPECT_EQ(V.load(T), 12u);
  finishOk(R);
}

TEST(SharedVarTest, DistinctShadowAddresses) {
  Recorder R;
  SharedVar<uint64_t> A(R, "a");
  SharedVar<uint64_t> B(R, "b");
  EXPECT_NE(A.addr(), B.addr());
  R.registerThread();
  finishOk(R);
}

//===----------------------------------------------------------------------===//
// Shared mutex and trylock recording
//===----------------------------------------------------------------------===//

TEST(RecorderTest, SharedMutexEventSequence) {
  Recorder R;
  RecordingSharedMutex Rw(R, "rw");
  ThreadId T = R.registerThread();
  Rw.lockShared(T);
  Rw.unlockShared(T);
  Rw.lock(T);
  Rw.unlock(T);
  bool Ok = Rw.tryLock(T);
  EXPECT_TRUE(Ok);
  if (Ok)
    Rw.unlock(T);
  Trace Tr = finishOk(R);
  ASSERT_EQ(Tr.validate(), "");

  std::vector<EventKind> Kinds;
  for (const Event &E : Tr.Threads[0].Events)
    if (E.Kind != EventKind::Compute)
      Kinds.push_back(E.Kind);
  EXPECT_EQ(Kinds,
            (std::vector<EventKind>{
                EventKind::ThreadStart, EventKind::RwAcquireRead,
                EventKind::LockRelease, EventKind::RwAcquireWrite,
                EventKind::LockRelease, EventKind::TryAcquire,
                EventKind::LockRelease, EventKind::ThreadEnd}));
  for (const Event &E : Tr.Threads[0].Events) {
    if (E.Kind == EventKind::RwAcquireRead)
      EXPECT_EQ(acquireModeOf(E), AcquireMode::Shared);
    if (E.Kind == EventKind::TryAcquire) {
      EXPECT_TRUE(E.TrySucceeded);
      EXPECT_EQ(E.Mode, AcquireMode::Exclusive);
    }
  }
}

TEST(RecorderTest, FailedTryLockRecordedWithoutSection) {
  Recorder R;
  RecordingSharedMutex Rw(R, "rw");
  ThreadId T0 = R.registerThread();
  Rw.lock(T0);
  std::thread Other([&] {
    ThreadId T1 = R.registerThread();
    // The writer above holds Rw: both try flavors must fail.
    bool Excl = Rw.tryLock(T1);
    EXPECT_FALSE(Excl);
    if (Excl)
      Rw.unlock(T1);
    bool Shared = Rw.tryLockShared(T1);
    EXPECT_FALSE(Shared);
    if (Shared)
      Rw.unlockShared(T1);
  });
  Other.join();
  Rw.unlock(T0);
  Trace Tr = finishOk(R);
  ASSERT_EQ(Tr.validate(), "");

  unsigned Fails = 0;
  for (const Event &E : Tr.Threads[1].Events)
    if (E.Kind == EventKind::TryAcquire) {
      EXPECT_FALSE(E.TrySucceeded);
      EXPECT_EQ(E.Mode, Fails == 0 ? AcquireMode::Exclusive
                                   : AcquireMode::Shared);
      ++Fails;
    }
  EXPECT_EQ(Fails, 2u);
  // Failed tries open no sections: only the main thread's writer CS.
  Tr.buildCsIndex();
  EXPECT_EQ(CsIndex::build(Tr).size(), 1u);
}
