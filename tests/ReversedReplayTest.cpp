//===- tests/ReversedReplayTest.cpp - abstract memory machine tests ---------===//

#include "detect/ReversedReplay.h"

#include "detect/Classify.h"
#include "detect/CriticalSection.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

using namespace perfplay;

//===----------------------------------------------------------------------===//
// Six-replay oracle
//===----------------------------------------------------------------------===//

namespace {

/// The reversed replay as it was written before the two-pass kernel:
/// a std::map image restricted to the pair's addresses, copied into
/// six separate replays.  Kept here as the reference isBenignPair must
/// agree with on every pair.
namespace oracle {

using Image = std::map<AddrId, uint64_t>;

/// The initial-value scan: the first dynamic access per address,
/// threads in order, seeds it if that access is a read.
Image initialOf(const Trace &Tr) {
  Image Seeds;
  std::set<AddrId> Decided;
  for (const auto &T : Tr.Threads)
    for (const Event &E : T.Events)
      if ((E.Kind == EventKind::Read || E.Kind == EventKind::Write) &&
          Decided.insert(E.addr()).second && E.Kind == EventKind::Read)
        Seeds[E.addr()] = E.value();
  return Seeds;
}

struct Outcome {
  Image Final;
  std::vector<uint64_t> ReadValues;
};

Outcome replaySections(const Trace &Tr, Image Initial,
                       const std::vector<const CriticalSection *> &Sections) {
  Outcome Out;
  Out.Final = std::move(Initial);
  for (const CriticalSection *Cs : Sections) {
    const auto &Events = Tr.Threads[Cs->Ref.Thread].Events;
    for (size_t I = Cs->AcquireIdx + 1; I != Cs->ReleaseIdx; ++I) {
      const Event &E = Events[I];
      if (E.Kind == EventKind::Read) {
        auto It = Out.Final.find(E.addr());
        Out.ReadValues.push_back(It == Out.Final.end() ? 0 : It->second);
      } else if (E.Kind == EventKind::Write) {
        uint64_t &Cell = Out.Final[E.addr()];
        switch (E.Op) {
        case WriteOpKind::Store:
          Cell = E.value();
          break;
        case WriteOpKind::Add:
          Cell += E.value();
          break;
        case WriteOpKind::Or:
          Cell |= E.value();
          break;
        case WriteOpKind::And:
          Cell &= E.value();
          break;
        case WriteOpKind::Xor:
          Cell ^= E.value();
          break;
        }
      }
    }
  }
  return Out;
}

bool isBenignPair(const Trace &Tr, const CsIndex &Index,
                  const Image &Initial, const CriticalSection &A,
                  const CriticalSection &B) {
  // Restricted image: the pair's addresses that Initial seeds.
  Image Restricted;
  for (Span<AddrId> Set : {Index.reads(A), Index.writes(A), Index.reads(B),
                           Index.writes(B)})
    for (AddrId Addr : Set)
      if (auto It = Initial.find(Addr); It != Initial.end())
        Restricted.insert(*It);

  Outcome Forward = replaySections(Tr, Restricted, {&A, &B});
  Outcome Reversed = replaySections(Tr, Restricted, {&B, &A});
  if (Forward.Final != Reversed.Final)
    return false;
  Outcome AFirst = replaySections(Tr, Restricted, {&A});
  Outcome BFirst = replaySections(Tr, Restricted, {&B});
  Outcome ASecond = replaySections(Tr, BFirst.Final, {&A});
  if (AFirst.ReadValues != ASecond.ReadValues)
    return false;
  Outcome BSecond = replaySections(Tr, AFirst.Final, {&B});
  return BFirst.ReadValues == BSecond.ReadValues;
}

} // namespace oracle

struct SectionFixture {
  Trace Tr;
  CsIndex Index = CsIndex::build(Trace());

  SectionFixture() {
    TraceBuilder B;
    LockId Mu = B.addLock("mu");
    ThreadId T0 = B.addThread();
    ThreadId T1 = B.addThread();
    // Section 0: x += 3.
    B.beginCs(T0, Mu);
    B.write(T0, 1, 3, WriteOpKind::Add);
    B.endCs(T0);
    // Section 1: read x then store y = 9.
    B.beginCs(T1, Mu);
    B.read(T1, 1, 0);
    B.write(T1, 2, 9);
    B.endCs(T1);
    Tr = B.finish();
    Index = CsIndex::build(Tr);
  }
};

} // namespace

TEST(ReplaySectionsTest, ExecutesInOrder) {
  SectionFixture F;
  oracle::Outcome Out = oracle::replaySections(
      F.Tr, oracle::initialOf(F.Tr),
      {&F.Index.byGlobalId(0), &F.Index.byGlobalId(1)});
  EXPECT_EQ(Out.Final[1], 3u);
  EXPECT_EQ(Out.Final[2], 9u);
  ASSERT_EQ(Out.ReadValues.size(), 1u);
  EXPECT_EQ(Out.ReadValues[0], 3u); // Read sees the add.
}

TEST(ReplaySectionsTest, ReversedOrderDiffers) {
  SectionFixture F;
  oracle::Outcome Out = oracle::replaySections(
      F.Tr, oracle::initialOf(F.Tr),
      {&F.Index.byGlobalId(1), &F.Index.byGlobalId(0)});
  ASSERT_EQ(Out.ReadValues.size(), 1u);
  EXPECT_EQ(Out.ReadValues[0], 0u); // Read precedes the add.
}

TEST(ReplaySectionsTest, EmptySectionListIsIdentity) {
  SectionFixture F;
  oracle::Image Init = oracle::initialOf(F.Tr);
  oracle::Outcome Out = oracle::replaySections(F.Tr, Init, {});
  EXPECT_EQ(Out.Final, Init);
  EXPECT_TRUE(Out.ReadValues.empty());
}

//===----------------------------------------------------------------------===//
// isBenignPair
//===----------------------------------------------------------------------===//

namespace {

Trace twoSectionTrace(void (*Body0)(TraceBuilder &, ThreadId),
                      void (*Body1)(TraceBuilder &, ThreadId)) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  Body0(B, T0);
  B.endCs(T0);
  B.beginCs(T1, Mu);
  Body1(B, T1);
  B.endCs(T1);
  return B.finish();
}

/// isBenignPair on sections \p IdA and \p IdB of \p Tr, after checking
/// that the swapped call and the six-replay oracle agree with it.
bool benignOfTrace(const Trace &Tr, uint32_t IdA = 0, uint32_t IdB = 1) {
  CsIndex Index = CsIndex::build(Tr);
  const CriticalSection &A = Index.byGlobalId(IdA);
  const CriticalSection &B = Index.byGlobalId(IdB);
  bool Benign = isBenignPair(Index, A, B);
  EXPECT_EQ(isBenignPair(Index, B, A), Benign) << "argument order";
  EXPECT_EQ(oracle::isBenignPair(Tr, Index, oracle::initialOf(Tr), A, B),
            Benign)
      << "six-replay oracle";
  return Benign;
}

} // namespace

TEST(IsBenignTest, XorPairsCommute) {
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 1, 0xA, WriteOpKind::Xor);
      },
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 1, 0x5, WriteOpKind::Xor);
      });
  EXPECT_TRUE(benignOfTrace(Tr));
}

TEST(IsBenignTest, AndOrMixDoesNotCommute) {
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 1, 0x0, WriteOpKind::And);
      },
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 1, 0x1, WriteOpKind::Or);
      });
  EXPECT_FALSE(benignOfTrace(Tr));
}

TEST(IsBenignTest, StoreThenDependentReadConflicts) {
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 1, 42); },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 1, 42); });
  EXPECT_FALSE(benignOfTrace(Tr));
}

TEST(IsBenignTest, IdenticalStoresBenign) {
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 1, 42); },
      [](TraceBuilder &B, ThreadId T) { B.write(T, 1, 42); });
  EXPECT_TRUE(benignOfTrace(Tr));
}

TEST(IsBenignTest, MultiAddressBenign) {
  // Each section stores the same values to two cells.
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 1, 7);
        B.write(T, 2, 8);
      },
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 2, 8);
        B.write(T, 1, 7);
      });
  EXPECT_TRUE(benignOfTrace(Tr));
}

TEST(IsBenignTest, PartialConflictDetected) {
  // Same store on one address, different on another.
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 1, 7);
        B.write(T, 2, 100);
      },
      [](TraceBuilder &B, ThreadId T) {
        B.write(T, 1, 7);
        B.write(T, 2, 200);
      });
  EXPECT_FALSE(benignOfTrace(Tr));
}

TEST(IsBenignTest, UnseededAddressReadsZero) {
  // Section 0 writes x before anything reads it, so the initial image
  // does not seed x; section 1's recorded 7 must not leak into the
  // replay.  Reading x first therefore sees 0, the value section 0
  // stores, so both orders read the same.
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 1, 0); },
      [](TraceBuilder &B, ThreadId T) { B.read(T, 1, 7); });
  CsIndex Index = CsIndex::build(Tr);
  EXPECT_EQ(Index.slotValues(Index.byGlobalId(1))[0], 0u);
  EXPECT_TRUE(benignOfTrace(Tr));
}

TEST(IsBenignTest, MatchingFinalImagesWithDifferentReadsConflict) {
  // Both orders end with x = 5, y = 9, but section 1 reads x = 5 after
  // section 0 and x = 0 before it.
  Trace Tr = twoSectionTrace(
      [](TraceBuilder &B, ThreadId T) { B.write(T, 1, 5); },
      [](TraceBuilder &B, ThreadId T) {
        B.read(T, 1, 5);
        B.write(T, 2, 9);
      });
  EXPECT_FALSE(benignOfTrace(Tr));
}

namespace {

/// Section 0 (thread 0, lock mu) nests section 1 (lock inner); section
/// 2 (thread 1, lock mu) runs \p Body.
Trace nestedTrace(WriteOpKind InnerOp,
                  void (*Body)(TraceBuilder &, ThreadId)) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  LockId Inner = B.addLock("inner");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.write(T0, 1, 2, WriteOpKind::Add);
  B.beginCs(T0, Inner);
  B.write(T0, 2, 0x3, InnerOp);
  B.endCs(T0);
  B.endCs(T0);
  B.beginCs(T1, Mu);
  Body(B, T1);
  B.endCs(T1);
  return B.finish();
}

} // namespace

TEST(IsBenignTest, NestedInnerSectionAccessesAreReplayed) {
  // The inner section's write to y belongs to the outer section too.
  auto Body = [](TraceBuilder &B, ThreadId T) {
    B.write(T, 1, 5, WriteOpKind::Add);
    B.write(T, 2, 0xC, WriteOpKind::Xor);
  };
  EXPECT_TRUE(benignOfTrace(nestedTrace(WriteOpKind::Xor, Body), 0, 2));
  // An inner store does not commute with the other section's xor.
  EXPECT_FALSE(benignOfTrace(nestedTrace(WriteOpKind::Store, Body), 0, 2));
}

TEST(IsBenignTest, WriteOperatorsApplyAsDocumented) {
  // Section 0 runs store 10, add 5, or 0xF0, and 0x0F, xor 0xFF on x:
  // ((10 + 5) | 0xF0) & 0x0F = 0x0F, ^ 0xFF = 0xF0.  Section 1 only
  // reads x, so the pair is benign exactly when that chain maps x's
  // initial value to itself: when the initial value is 0xF0.
  auto PairFromInitial = [](uint64_t Initial) {
    TraceBuilder B;
    LockId Mu = B.addLock("mu");
    ThreadId T0 = B.addThread();
    ThreadId T1 = B.addThread();
    B.read(T0, 1, Initial, /*AllowUnlocked=*/true);
    B.beginCs(T0, Mu);
    B.write(T0, 1, 10, WriteOpKind::Store);
    B.write(T0, 1, 5, WriteOpKind::Add);
    B.write(T0, 1, 0xF0, WriteOpKind::Or);
    B.write(T0, 1, 0x0F, WriteOpKind::And);
    B.write(T0, 1, 0xFF, WriteOpKind::Xor);
    B.endCs(T0);
    B.beginCs(T1, Mu);
    B.read(T1, 1, 0);
    B.endCs(T1);
    return B.finish();
  };
  EXPECT_TRUE(benignOfTrace(PairFromInitial(0xF0)));
  EXPECT_FALSE(benignOfTrace(PairFromInitial(0xF1)));
  EXPECT_FALSE(benignOfTrace(PairFromInitial(0x0F)));
}

TEST(IsBenignTest, WideSectionsMatchOracle) {
  // The app models' sections hold at most two slots; these hold forty
  // and share twenty, so the pair-slot merge, the per-section maps and
  // the scratch growth run at a width no model reaches.
  auto Body0 = [](TraceBuilder &B, ThreadId T) {
    for (AddrId A = 100; A != 140; ++A)
      B.write(T, A, A, WriteOpKind::Add);
  };
  // Adds commute on every shared address.
  EXPECT_TRUE(benignOfTrace(twoSectionTrace(Body0, [](TraceBuilder &B,
                                                      ThreadId T) {
    for (AddrId A = 120; A != 160; ++A)
      B.write(T, A, 1, WriteOpKind::Add);
  })));
  // One store among the adds does not commute.
  EXPECT_FALSE(benignOfTrace(twoSectionTrace(Body0, [](TraceBuilder &B,
                                                       ThreadId T) {
    for (AddrId A = 120; A != 160; ++A)
      B.write(T, A, 1, A == 139 ? WriteOpKind::Store : WriteOpKind::Add);
  })));
  // A read of a shared address sees the other section's add.
  EXPECT_FALSE(benignOfTrace(twoSectionTrace(Body0, [](TraceBuilder &B,
                                                       ThreadId T) {
    for (AddrId A = 120; A != 160; ++A)
      B.read(T, A, 0);
  })));
}

TEST(ReversedReplayTest, MatchesSixReplayOracleOnEveryApp) {
  std::vector<AppModel> Apps = allApps();
  Apps.insert(Apps.end(), syntheticApps().begin(), syntheticApps().end());
  uint64_t Benign = 0, Conflicting = 0;
  for (const AppModel &App : Apps) {
    SCOPED_TRACE(App.Name);
    Trace Tr = generateWorkload(App.Factory(4, 1.0));
    CsIndex Index = CsIndex::build(Tr);
    const oracle::Image OracleInitial = oracle::initialOf(Tr);
    size_t Mismatches = 0;
    for (const std::vector<uint32_t> &Order : Index.lockOrders())
      for (size_t I = 0; I != Order.size(); ++I)
        for (size_t J = I + 1; J != Order.size(); ++J) {
          const CriticalSection &A = Index.byGlobalId(Order[I]);
          const CriticalSection &B = Index.byGlobalId(Order[J]);
          if (A.Ref.Thread == B.Ref.Thread ||
              classifyPairStatic(Index, A, B) != UlcpKind::TrueContention)
            continue;
          bool Want = oracle::isBenignPair(Tr, Index, OracleInitial, A, B);
          ++(Want ? Benign : Conflicting);
          if (isBenignPair(Index, A, B) != Want)
            ++Mismatches;
          if (isBenignPair(Index, B, A) != Want)
            ++Mismatches;
        }
    EXPECT_EQ(Mismatches, 0u);
  }
  // The sweep must drive both verdicts.
  EXPECT_GT(Benign, 0u);
  EXPECT_GT(Conflicting, 0u);
}

// App models give every section at most two slots and rarely make a
// verdict hinge on an initial value or on the write operator, so this
// sweep builds seeded random sections that do: 1–8 accesses over five
// addresses with every write operator and small operands, plus
// unlocked reads that seed slots with nonzero initial values.
TEST(ReversedReplayTest, MatchesOracleOnRandomSections) {
  constexpr WriteOpKind Ops[] = {WriteOpKind::Store, WriteOpKind::Add,
                                 WriteOpKind::Or, WriteOpKind::And,
                                 WriteOpKind::Xor};
  uint64_t Benign = 0, Conflicting = 0;
  for (uint64_t Seed = 1; Seed != 301; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    TraceBuilder B;
    LockId Mu = B.addLock("mu");
    const unsigned NumThreads = 2 + static_cast<unsigned>(R.nextBelow(3));
    for (unsigned T = 0; T != NumThreads; ++T) {
      ThreadId Tid = B.addThread();
      const unsigned Sections = 1 + static_cast<unsigned>(R.nextBelow(3));
      for (unsigned S = 0; S != Sections; ++S) {
        if (R.nextBool(0.5))
          B.read(Tid, 1 + R.nextBelow(5), R.nextBelow(8),
                 /*AllowUnlocked=*/true);
        B.beginCs(Tid, Mu);
        const unsigned Accesses = 1 + static_cast<unsigned>(R.nextBelow(8));
        for (unsigned I = 0; I != Accesses; ++I) {
          AddrId Addr = 1 + R.nextBelow(5);
          if (R.nextBool(0.4))
            B.read(Tid, Addr, R.nextBelow(8));
          else
            B.write(Tid, Addr, R.nextBelow(8), Ops[R.nextBelow(5)]);
        }
        B.endCs(Tid);
      }
    }
    Trace Tr = B.finish();
    CsIndex Index = CsIndex::build(Tr);
    const oracle::Image OracleInitial = oracle::initialOf(Tr);
    size_t Mismatches = 0;
    const std::vector<uint32_t> &Order = Index.lockOrders().at(Mu);
    for (size_t I = 0; I != Order.size(); ++I)
      for (size_t J = I + 1; J != Order.size(); ++J) {
        const CriticalSection &A = Index.byGlobalId(Order[I]);
        const CriticalSection &C = Index.byGlobalId(Order[J]);
        if (A.Ref.Thread == C.Ref.Thread)
          continue;
        bool Want = oracle::isBenignPair(Tr, Index, OracleInitial, A, C);
        ++(Want ? Benign : Conflicting);
        Mismatches += isBenignPair(Index, A, C) != Want;
        Mismatches += isBenignPair(Index, C, A) != Want;
      }
    EXPECT_EQ(Mismatches, 0u);
  }
  EXPECT_GT(Benign, 0u);
  EXPECT_GT(Conflicting, 0u);
}
