//===- tests/TraceTest.cpp - trace model unit tests -------------------------===//

#include "trace/Trace.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

using namespace perfplay;

namespace {

/// Two threads, one lock, one critical section each.
Trace makeSimpleTrace() {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId Site = B.addSite("a.cc", "f", 10, 20);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.compute(T0, 100);
  B.beginCs(T0, Mu, Site);
  B.read(T0, 1, 7);
  B.endCs(T0);
  B.compute(T1, 150);
  B.beginCs(T1, Mu, Site);
  B.write(T1, 2, 9);
  B.endCs(T1);
  return B.finish();
}

} // namespace

TEST(TraceBuilderTest, ProducesValidTrace) {
  Trace Tr = makeSimpleTrace();
  EXPECT_EQ(Tr.validate(), "");
  EXPECT_EQ(Tr.numThreads(), 2u);
  EXPECT_EQ(Tr.numCriticalSections(), 2u);
}

TEST(TraceBuilderTest, ThreadStreamsBracketed) {
  Trace Tr = makeSimpleTrace();
  for (const auto &T : Tr.Threads) {
    ASSERT_GE(T.Events.size(), 2u);
    EXPECT_EQ(T.Events.front().Kind, EventKind::ThreadStart);
    EXPECT_EQ(T.Events.back().Kind, EventKind::ThreadEnd);
  }
}

TEST(TraceBuilderTest, NestedSectionsSupported) {
  TraceBuilder B;
  LockId Outer = B.addLock("outer");
  LockId Inner = B.addLock("inner");
  ThreadId T = B.addThread();
  B.beginCs(T, Outer);
  B.beginCs(T, Inner);
  B.endCs(T); // Closes inner.
  B.endCs(T); // Closes outer.
  Trace Tr = B.finish();
  EXPECT_EQ(Tr.validate(), "");
  EXPECT_EQ(Tr.numCriticalSections(), 2u);
  // Release order must be inner first.
  const auto &Events = Tr.Threads[0].Events;
  ASSERT_EQ(Events.size(), 6u);
  EXPECT_EQ(Events[3].Kind, EventKind::LockRelease);
  EXPECT_EQ(Events[3].Lock, Inner);
  EXPECT_EQ(Events[4].Lock, Outer);
}

TEST(TraceTest, GlobalCsIdRoundTrips) {
  Trace Tr = makeSimpleTrace();
  EXPECT_EQ(Tr.globalCsId(CsRef{0, 0}), 0u);
  EXPECT_EQ(Tr.globalCsId(CsRef{1, 0}), 1u);
  CsRef R = Tr.csRefOf(1);
  EXPECT_EQ(R.Thread, 1u);
  EXPECT_EQ(R.Index, 0u);
}

TEST(TraceTest, GlobalCsIdSkipsEmptyThreads) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread(); // No critical sections.
  ThreadId T2 = B.addThread();
  B.beginCs(T0, Mu);
  B.endCs(T0);
  B.beginCs(T2, Mu);
  B.endCs(T2);
  (void)T1;
  Trace Tr = B.finish();
  EXPECT_EQ(Tr.globalCsId(CsRef{2, 0}), 1u);
  EXPECT_EQ(Tr.csRefOf(1).Thread, 2u);
}

TEST(TraceTest, NumCriticalSectionsPerThread) {
  Trace Tr = makeSimpleTrace();
  EXPECT_EQ(Tr.numCriticalSections(0), 1u);
  EXPECT_EQ(Tr.numCriticalSections(1), 1u);
}

TEST(TraceValidateTest, CatchesMissingThreadStart) {
  Trace Tr = makeSimpleTrace();
  Tr.Threads[0].Events.erase(Tr.Threads[0].Events.begin());
  EXPECT_EQ(Tr.validate(), "thread 0: does not begin with ThreadStart");
}

TEST(TraceValidateTest, CatchesUnknownLock) {
  Trace Tr = makeSimpleTrace();
  for (auto &E : Tr.Threads[0].Events)
    if (E.Kind == EventKind::LockAcquire)
      E.Lock = 99;
  EXPECT_NE(Tr.validate(), "");
}

TEST(TraceValidateTest, CatchesMismatchedRelease) {
  TraceBuilder B;
  LockId A = B.addLock("a");
  LockId Bk = B.addLock("b");
  ThreadId T = B.addThread();
  B.beginCs(T, A);
  B.endCs(T);
  Trace Tr = B.finish();
  // Corrupt the release to name the wrong lock.
  for (auto &E : Tr.Threads[0].Events)
    if (E.Kind == EventKind::LockRelease)
      E.Lock = Bk;
  EXPECT_EQ(Tr.validate(),
            "thread 0: event 2: release does not match innermost held lock");
}

TEST(TraceValidateTest, CatchesDanglingHold) {
  Trace Tr = makeSimpleTrace();
  // Drop the release of thread 0 (and shift ThreadEnd earlier).
  auto &Events = Tr.Threads[0].Events;
  for (size_t I = 0; I != Events.size(); ++I)
    if (Events[I].Kind == EventKind::LockRelease) {
      Events.erase(Events.begin() + static_cast<ptrdiff_t>(I));
      break;
    }
  EXPECT_NE(Tr.validate(), "");
}

TEST(TraceValidateTest, CatchesBadConstraint) {
  Trace Tr = makeSimpleTrace();
  Tr.Constraints.push_back(OrderConstraint{0, 0});
  EXPECT_NE(Tr.validate(), "");
  Tr.Constraints.back() = OrderConstraint{0, 57};
  EXPECT_NE(Tr.validate(), "");
}

TEST(TraceValidateTest, CatchesBadLockset) {
  Trace Tr = makeSimpleTrace();
  Lockset LS;
  LS.Entries.push_back(LocksetEntry{99, InvalidId});
  Tr.Locksets.push_back(LS);
  EXPECT_NE(Tr.validate(), "");
}

TEST(TraceValidateTest, CatchesBadSchedule) {
  Trace Tr = makeSimpleTrace();
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  Tr.LockSchedule[0].push_back(CsRef{0, 5});
  EXPECT_NE(Tr.validate(), "");
}

TEST(EventTest, ConstructorsSetKinds) {
  EXPECT_EQ(Event::threadStart().Kind, EventKind::ThreadStart);
  EXPECT_EQ(Event::threadEnd().Kind, EventKind::ThreadEnd);
  EXPECT_EQ(Event::lockAcquire(1, 2).Kind, EventKind::LockAcquire);
  EXPECT_EQ(Event::lockRelease(1).Kind, EventKind::LockRelease);
  EXPECT_EQ(Event::read(3, 4).Kind, EventKind::Read);
  EXPECT_EQ(Event::write(3, 4).Kind, EventKind::Write);
  EXPECT_EQ(Event::compute(5).Kind, EventKind::Compute);
}

TEST(EventTest, Names) {
  EXPECT_STREQ(eventKindName(EventKind::LockAcquire), "acq");
  EXPECT_STREQ(eventKindName(EventKind::Read), "rd");
  EXPECT_STREQ(writeOpName(WriteOpKind::Add), "add");
  EXPECT_STREQ(writeOpName(WriteOpKind::Store), "store");
}
