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
  EXPECT_EQ(Events[3].lock(), Inner);
  EXPECT_EQ(Events[4].lock(), Outer);
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
      E = Event::lockAcquire(99, E.site());
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
      E = Event::lockRelease(Bk);
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

TEST(EventTest, EventIs24Bytes) { EXPECT_EQ(sizeof(Event), 24u); }

// Every named constructor's fields read back through the accessors,
// at the extremes of each field's range.
TEST(EventTest, ConstructorsRoundTripThroughAccessors) {
  constexpr uint64_t Max64 = UINT64_MAX;
  constexpr uint32_t Big = InvalidId - 1;

  Event Acq = Event::lockAcquire(Big, Big, InvalidId);
  EXPECT_EQ(Acq.Kind, EventKind::LockAcquire);
  EXPECT_EQ(Acq.lock(), Big);
  EXPECT_EQ(Acq.site(), Big);
  EXPECT_EQ(Acq.lockset(), InvalidId);
  EXPECT_EQ(Acq.Mode, AcquireMode::Exclusive);
  EXPECT_EQ(Event::lockAcquire(0, InvalidId, Big).lockset(), Big);
  EXPECT_EQ(Event::lockAcquire(0, InvalidId).site(), InvalidId);

  Event Rel = Event::lockRelease(Big);
  EXPECT_EQ(Rel.Kind, EventKind::LockRelease);
  EXPECT_EQ(Rel.lock(), Big);
  EXPECT_EQ(Rel.site(), InvalidId);
  EXPECT_EQ(Rel.lockset(), InvalidId);

  Event Rd = Event::read(Max64, Max64);
  EXPECT_EQ(Rd.Kind, EventKind::Read);
  EXPECT_EQ(Rd.addr(), Max64);
  EXPECT_EQ(Rd.value(), Max64);
  EXPECT_EQ(Event::read(7).value(), 0u);

  for (WriteOpKind Op : {WriteOpKind::Store, WriteOpKind::Add,
                         WriteOpKind::Or, WriteOpKind::And,
                         WriteOpKind::Xor}) {
    Event Wr = Event::write(Max64, Max64 - 1, Op);
    EXPECT_EQ(Wr.Kind, EventKind::Write);
    EXPECT_EQ(Wr.Op, Op);
    EXPECT_EQ(Wr.addr(), Max64);
    EXPECT_EQ(Wr.value(), Max64 - 1);
  }
  EXPECT_EQ(Event::write(1, 2).Op, WriteOpKind::Store);

  Event Comp = Event::compute(Max64);
  EXPECT_EQ(Comp.Kind, EventKind::Compute);
  EXPECT_EQ(Comp.cost(), Max64);
  EXPECT_EQ(Event().Kind, EventKind::Compute);
  EXPECT_EQ(Event().cost(), 0u);

  Event RwR = Event::rwAcquireRead(Big, 3, InvalidId);
  EXPECT_EQ(RwR.Kind, EventKind::RwAcquireRead);
  EXPECT_EQ(RwR.Mode, AcquireMode::Shared);
  EXPECT_EQ(RwR.lock(), Big);
  EXPECT_EQ(RwR.site(), 3u);
  EXPECT_EQ(RwR.lockset(), InvalidId);
  Event RwW = Event::rwAcquireWrite(1, Big, Big);
  EXPECT_EQ(RwW.Kind, EventKind::RwAcquireWrite);
  EXPECT_EQ(RwW.Mode, AcquireMode::Exclusive);
  EXPECT_EQ(RwW.lock(), 1u);
  EXPECT_EQ(RwW.site(), Big);
  EXPECT_EQ(RwW.lockset(), Big);

  for (AcquireMode Mode : {AcquireMode::Exclusive, AcquireMode::Shared})
    for (bool Ok : {false, true}) {
      Event Try = Event::tryAcquire(Big, Big, Ok, Mode, InvalidId);
      EXPECT_EQ(Try.Kind, EventKind::TryAcquire);
      EXPECT_EQ(Try.Mode, Mode);
      EXPECT_EQ(Try.TrySucceeded, Ok);
      EXPECT_EQ(Try.lock(), Big);
      EXPECT_EQ(Try.site(), Big);
      EXPECT_EQ(Try.lockset(), InvalidId);
      EXPECT_EQ(isSectionOpen(Try), Ok);
      EXPECT_EQ(acquireModeOf(Try), Mode);
    }

  Event Wait = Event::condWait(Big, Big);
  EXPECT_EQ(Wait.Kind, EventKind::CondWait);
  EXPECT_EQ(Wait.lock(), Big);
  EXPECT_EQ(Wait.site(), Big);
  EXPECT_EQ(Wait.lockset(), InvalidId);
  Event Sig = Event::condSignal(Big);
  EXPECT_EQ(Sig.Kind, EventKind::CondSignal);
  EXPECT_EQ(Sig.lock(), Big);
  EXPECT_EQ(Sig.site(), InvalidId);
  Event Bro = Event::condBroadcast(Big);
  EXPECT_EQ(Bro.Kind, EventKind::CondBroadcast);
  EXPECT_EQ(Bro.lock(), Big);
  EXPECT_EQ(Bro.site(), InvalidId);
}

TEST(EventTest, SetLocksetRebindsOnlyTheLockset) {
  Event E = Event::tryAcquire(4, 5, true, AcquireMode::Shared);
  E.setLockset(InvalidId - 1);
  EXPECT_EQ(E.lockset(), InvalidId - 1);
  EXPECT_EQ(E.lock(), 4u);
  EXPECT_EQ(E.site(), 5u);
  EXPECT_EQ(E.Mode, AcquireMode::Shared);
  EXPECT_TRUE(E.TrySucceeded);
  E.setLockset(InvalidId);
  EXPECT_TRUE(E == Event::tryAcquire(4, 5, true, AcquireMode::Shared));
}

// Reading a field the event's kind does not carry is a program bug;
// Debug builds assert on it.
TEST(EventDeathTest, AccessorsAssertTheKind) {
#ifdef NDEBUG
  GTEST_SKIP() << "kind asserts are compiled out under NDEBUG";
#endif
  EXPECT_DEBUG_DEATH((void)Event::compute(5).addr(), "addr");
  EXPECT_DEBUG_DEATH((void)Event::read(1, 2).cost(), "cost");
  EXPECT_DEBUG_DEATH((void)Event::write(1, 2).lock(), "lock");
  EXPECT_DEBUG_DEATH((void)Event::lockRelease(1).value(), "value");
  EXPECT_DEBUG_DEATH((void)Event::threadStart().site(), "site");
  EXPECT_DEBUG_DEATH(Event::compute(1).setLockset(0), "lockset");
}

TEST(EventTest, Names) {
  EXPECT_STREQ(eventKindName(EventKind::LockAcquire), "acq");
  EXPECT_STREQ(eventKindName(EventKind::Read), "rd");
  EXPECT_STREQ(writeOpName(WriteOpKind::Add), "add");
  EXPECT_STREQ(writeOpName(WriteOpKind::Store), "store");
}
