//===- tests/TransformTest.cpp - RULE 1-4 transformation tests --------------===//

#include "transform/Transform.h"

#include "core/Engine.h"
#include "detect/Classify.h"
#include "detect/Detector.h"
#include "detect/SectionKey.h"
#include "sim/Replayer.h"
#include "support/FlatMap.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceV3.h"
#include "transform/RaceCheck.h"
#include "workloads/Apps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

using namespace perfplay;

namespace {

/// The Figure 7 example.  Shared data: addr 1 ("data 1") and addr 2
/// ("data 2").  Sections in recorded order:
///   R1(T1) < R2(T2) < W1st(T3) < R2(T1) < W1(T2) < W2nd(T3)
/// Global ids by thread-major numbering:
///   0 = R1(T1), 1 = R2(T1), 2 = R2(T2), 3 = W1(T2),
///   4 = W1st(T3), 5 = W2nd(T3).
struct Figure7 {
  Trace Tr;
  static constexpr uint32_t R1T1 = 0, R2T1 = 1, R2T2 = 2, W1T2 = 3,
                            W1T3a = 4, W1T3b = 5;

  Figure7() {
    TraceBuilder B;
    LockId L = B.addLock("L");
    CodeSiteId Site = B.addSite("fig7.cc", "f", 1, 10);
    ThreadId T1 = B.addThread();
    ThreadId T2 = B.addThread();
    ThreadId T3 = B.addThread();

    auto cs = [&](ThreadId T, bool IsWrite, AddrId Addr, uint64_t V) {
      B.compute(T, 50);
      B.beginCs(T, L, Site);
      if (IsWrite)
        B.write(T, Addr, V);
      else
        B.read(T, Addr, 0);
      B.compute(T, 100);
      B.endCs(T);
    };

    cs(T1, false, 1, 0); // R1 (reads data 1)
    cs(T1, false, 2, 0); // R2
    cs(T2, false, 2, 0); // R2
    cs(T2, true, 1, 2);  // W1 (stores 2)
    cs(T3, true, 1, 1);  // W1 first (stores 1)
    cs(T3, true, 1, 3);  // W1 second (stores 3)

    Tr = B.finish();
    Tr.LockSchedule.assign(Tr.Locks.size(), {});
    Tr.LockSchedule[L] = {CsRef{0, 0}, CsRef{1, 0}, CsRef{2, 0},
                          CsRef{0, 1}, CsRef{1, 1}, CsRef{2, 1}};
  }
};

bool hasEdge(const TopologyGraph &G, uint32_t From, uint32_t To) {
  NodeList Succ = G.successors(From);
  return std::find(Succ.begin(), Succ.end(), To) != Succ.end();
}

std::vector<uint32_t> toVector(NodeList Nodes) {
  return std::vector<uint32_t>(Nodes.begin(), Nodes.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// RULE 1: topology of the Figure 7 example
//===----------------------------------------------------------------------===//

TEST(TopologyTest, Figure7CausalEdges) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TopologyGraph G = buildTopology(F.Tr, Index);

  // The four causal edges of Figure 7(b).
  EXPECT_TRUE(hasEdge(G, Figure7::R1T1, Figure7::W1T2));
  EXPECT_TRUE(hasEdge(G, Figure7::R1T1, Figure7::W1T3a));
  EXPECT_TRUE(hasEdge(G, Figure7::W1T3a, Figure7::W1T2));
  EXPECT_TRUE(hasEdge(G, Figure7::W1T2, Figure7::W1T3b));
  EXPECT_EQ(G.numEdges(), 4u);
}

TEST(TopologyTest, Figure7StandaloneNodes) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TopologyGraph G = buildTopology(F.Tr, Index);
  EXPECT_TRUE(G.isStandalone(Figure7::R2T1));
  EXPECT_TRUE(G.isStandalone(Figure7::R2T2));
  EXPECT_FALSE(G.isStandalone(Figure7::R1T1));
  EXPECT_FALSE(G.isStandalone(Figure7::W1T3b));
}

TEST(TopologyTest, FirstMatchOnlyPerThread) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TopologyGraph G = buildTopology(F.Tr, Index);
  // R1 must NOT also edge to the second W1 in T3 (first-match rule).
  EXPECT_FALSE(hasEdge(G, Figure7::R1T1, Figure7::W1T3b));
}

TEST(TopologyTest, NoEdgesWithoutContention) {
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (int I = 0; I != 3; ++I) {
    B.beginCs(T0, L);
    B.read(T0, 1, 0);
    B.endCs(T0);
    B.beginCs(T1, L);
    B.read(T1, 1, 0);
    B.endCs(T1);
  }
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph G = buildTopology(Tr, Index);
  EXPECT_EQ(G.numEdges(), 0u);
}

//===----------------------------------------------------------------------===//
// RULE 1: the conflict-index search against the plain sequential scan
//===----------------------------------------------------------------------===//

namespace {

/// RULE 1 as a plain sequential scan: classify every later same-lock
/// section until each other thread has matched.  \p Calls counts the
/// classifyPair calls it makes.
TopologyGraph scanTopology(const CsIndex &Index, uint64_t &Calls) {
  std::vector<TopologyEdge> Edges;
  Calls = 0;
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    const std::vector<uint32_t> &Order = Index.sectionsOfLock(L);
    for (size_t I = 0; I != Order.size(); ++I) {
      const CriticalSection &A = Index.byGlobalId(Order[I]);
      std::set<ThreadId> Matched;
      for (size_t J = I + 1; J != Order.size(); ++J) {
        const CriticalSection &B = Index.byGlobalId(Order[J]);
        if (B.Ref.Thread == A.Ref.Thread || Matched.count(B.Ref.Thread))
          continue;
        ++Calls;
        if (classifyPair(Index, A, B) == UlcpKind::TrueContention) {
          Edges.push_back(TopologyEdge{A.GlobalId, B.GlobalId});
          Matched.insert(B.Ref.Thread);
        }
      }
    }
  }
  return TopologyGraph(Index.size(), std::move(Edges));
}

/// RULE 2 and 3 outputs derived from a topology the way the
/// transformation is specified: aux locks appended in global-id order,
/// one lockset per section (own aux lock, then each predecessor's),
/// constraints deduplicated in first-occurrence order.
struct RuleOutputs {
  std::vector<LockId> AuxLockOfCs;
  std::vector<std::vector<std::pair<LockId, uint32_t>>> Locksets;
  std::vector<std::pair<uint32_t, uint32_t>> Constraints;
  uint64_t NumStandalone = 0;
  uint64_t NumAuxLocks = 0;
};

RuleOutputs referenceRules(const Trace &Tr, const CsIndex &Index,
                           const TopologyGraph &Topo) {
  RuleOutputs Out;
  size_t NumCs = Index.size();
  Out.AuxLockOfCs.assign(NumCs, InvalidId);
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs)
    if (Topo.outDegree(Cs) != 0)
      Out.AuxLockOfCs[Cs] =
          static_cast<LockId>(Tr.Locks.size() + Out.NumAuxLocks++);
  for (LocksetId I = 0; I != Tr.Locksets.size(); ++I) {
    Out.Locksets.emplace_back();
    for (const LocksetEntry &E : Tr.Locksets[I].Entries)
      Out.Locksets.back().push_back({E.Lock, E.SourceCs});
  }
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    std::vector<std::pair<LockId, uint32_t>> LS;
    if (Out.AuxLockOfCs[Cs] != InvalidId)
      LS.push_back({Out.AuxLockOfCs[Cs], InvalidId});
    for (uint32_t Pred : Topo.predecessors(Cs))
      LS.push_back({Out.AuxLockOfCs[Pred], Pred});
    if (LS.empty())
      ++Out.NumStandalone;
    Out.Locksets.push_back(std::move(LS));
  }
  std::set<std::pair<uint32_t, uint32_t>> Emitted;
  auto add = [&](uint32_t Before, uint32_t After) {
    if (Before != After && Emitted.insert({Before, After}).second)
      Out.Constraints.push_back({Before, After});
  };
  for (const TopologyEdge &E : Topo.edges())
    add(E.From, E.To);
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    uint32_t PrevCausal = InvalidId;
    for (uint32_t Cs : Index.sectionsOfLock(L)) {
      if (Topo.isStandalone(Cs))
        continue;
      if (PrevCausal != InvalidId)
        add(PrevCausal, Cs);
      PrevCausal = Cs;
    }
  }
  return Out;
}

RuleOutputs rulesOf(const TransformResult &R) {
  RuleOutputs Out;
  Out.AuxLockOfCs = R.AuxLockOfCs;
  const LocksetTable &Locksets = R.Transformed.Locksets;
  for (LocksetId I = 0; I != Locksets.size(); ++I) {
    Out.Locksets.emplace_back();
    for (const LocksetEntry &E : Locksets[I].Entries)
      Out.Locksets.back().push_back({E.Lock, E.SourceCs});
  }
  for (const OrderConstraint &C : R.Transformed.Constraints)
    Out.Constraints.push_back({C.Before, C.After});
  Out.NumStandalone = R.NumStandalone;
  Out.NumAuxLocks = R.NumAuxLocks;
  return Out;
}

std::vector<std::pair<uint32_t, uint32_t>>
edgeList(const TopologyGraph &G) {
  std::vector<std::pair<uint32_t, uint32_t>> Out;
  for (const TopologyEdge &E : G.edges())
    Out.push_back({E.From, E.To});
  return Out;
}

} // namespace

// Every app and synthetic app, at three scales and two seeds.  The
// detector's pair mode (adjacent or all cross-thread) does not reach
// the transform, so it is not a dimension here.
TEST(TopologyTest, IndexedSearchMatchesSequentialScan) {
  std::vector<AppModel> Models = allApps();
  Models.insert(Models.end(), syntheticApps().begin(),
                syntheticApps().end());
  Engine Eng;
  bool SawMysql = false;
  for (const AppModel &App : Models)
    for (double Scale : {1.0, 4.0, 8.0})
      for (uint64_t Seed : {1, 2}) {
        SCOPED_TRACE(App.Name + " scale " + std::to_string(Scale) +
                     " seed " + std::to_string(Seed));
        WorkloadSpec Spec = App.Factory(4, Scale);
        Spec.Seed = Seed;
        AnalysisSession Session = Eng.openSession(generateWorkload(Spec));
        // The grant schedule fixes the per-lock order both searches walk.
        ASSERT_TRUE(Session.ensureRecorded().ok());
        const Trace &Tr = Session.trace();
        Expected<const CsIndex &> Index = Session.csIndex();
        ASSERT_TRUE(Index.ok()) << Index.message();
        Expected<const TransformResult &> Tx = Session.transform();
        ASSERT_TRUE(Tx.ok()) << Tx.message();

        uint64_t ScanCalls = 0;
        TopologyGraph Scan = scanTopology(*Index, ScanCalls);
        EXPECT_EQ(edgeList(Tx->Topology), edgeList(Scan));
        for (uint32_t Cs = 0; Cs != Index->size(); ++Cs) {
          ASSERT_EQ(toVector(Tx->Topology.predecessors(Cs)),
                    toVector(Scan.predecessors(Cs)));
          ASSERT_EQ(toVector(Tx->Topology.successors(Cs)),
                    toVector(Scan.successors(Cs)));
        }

        RuleOutputs Want = referenceRules(Tr, *Index, Scan);
        RuleOutputs Got = rulesOf(*Tx);
        EXPECT_EQ(Got.AuxLockOfCs, Want.AuxLockOfCs);
        EXPECT_EQ(Got.Locksets, Want.Locksets);
        EXPECT_EQ(Got.Constraints, Want.Constraints);
        EXPECT_EQ(Got.NumStandalone, Want.NumStandalone);
        EXPECT_EQ(Got.NumAuxLocks, Want.NumAuxLocks);

        EXPECT_LE(Tx->NumClassified, ScanCalls);
        if (App.Name == "mysql" && Scale == 8.0) {
          SawMysql = true;
          EXPECT_LT(Tx->NumClassified * 100, ScanCalls)
              << Tx->NumClassified << " of " << ScanCalls;
        }
      }
  EXPECT_TRUE(SawMysql);
}

// Sections with empty read/write sets classify as null-locks unless a
// condvar orders them; the index must still find that link, whichever
// of the two comes first in the lock order.
TEST(TopologyTest, CondvarLinkWithoutMemoryGetsEdge) {
  for (bool WaitFirst : {false, true}) {
    SCOPED_TRACE(WaitFirst ? "wait first" : "signal first");
    TraceBuilder B;
    LockId Mu = B.addLock("mu");
    LockId Cv = B.addLock("cv");
    ThreadId T0 = B.addThread();
    ThreadId T1 = B.addThread();
    ThreadId T2 = B.addThread();
    B.beginCs(T0, Mu);
    if (WaitFirst)
      B.condWait(T0, Cv);
    else
      B.condSignal(T0, Cv);
    B.endCs(T0);
    B.beginCs(T1, Mu);
    if (WaitFirst)
      B.condSignal(T1, Cv);
    else
      B.condWait(T1, Cv);
    B.endCs(T1);
    B.beginCs(T2, Mu); // Null body, no condvar: stays standalone.
    B.endCs(T2);
    Trace Tr = B.finish();
    CsIndex Index = CsIndex::build(Tr);
    ASSERT_TRUE(Index.slots(Index.byGlobalId(0)).empty());
    uint64_t Classified = 0;
    TopologyGraph G = buildTopology(Tr, Index, &Classified);
    EXPECT_EQ(edgeList(G), (std::vector<std::pair<uint32_t, uint32_t>>{
                               {0, 1}}));
    EXPECT_TRUE(G.isStandalone(2));
    EXPECT_EQ(Classified, 1u);
  }
}

// U's first true contention sits behind ULCPs of U: a null-lock, two
// disjoint sections and a benign redundant store.  The edge must skip
// all four and stop at the first true contention.
TEST(TopologyTest, FirstContentionBehindUlcpRun) {
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, L); // 0: reads 2, stores 5 to 1.
  B.read(T0, 2, 0);
  B.write(T0, 1, 5);
  B.endCs(T0);
  B.beginCs(T1, L); // 1: null-lock.
  B.endCs(T1);
  B.beginCs(T1, L); // 2: disjoint read.
  B.read(T1, 3, 0);
  B.endCs(T1);
  B.beginCs(T1, L); // 3: disjoint write.
  B.write(T1, 4, 1);
  B.endCs(T1);
  B.beginCs(T1, L); // 4: redundant store of 5 to 1: benign.
  B.write(T1, 1, 5);
  B.endCs(T1);
  B.beginCs(T1, L); // 5: reads 1: true contention.
  B.read(T1, 1, 0);
  B.endCs(T1);
  B.beginCs(T1, L); // 6: also true contention, but not the first.
  B.read(T1, 1, 0);
  B.write(T1, 2, 7);
  B.endCs(T1);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  uint64_t Calls = 0;
  TopologyGraph Scan = scanTopology(Index, Calls);
  uint64_t Classified = 0;
  TopologyGraph G = buildTopology(Tr, Index, &Classified);
  EXPECT_EQ(edgeList(G), edgeList(Scan));
  EXPECT_TRUE(hasEdge(G, 0, 5));
  EXPECT_FALSE(hasEdge(G, 0, 4));
  EXPECT_FALSE(hasEdge(G, 0, 6));
  // Only the benign store and the match share an address with 0.
  EXPECT_EQ(Classified, 2u);
  EXPECT_EQ(Calls, 5u);
}

// A lock whose conflicts are all benign (commutative adds from one
// site): every cross-thread pair shares a key pair, so it is
// classified once, where the scan replays every pair.
TEST(TopologyTest, BenignLockClassifiesEachKeyPairOnce) {
  TraceBuilder B;
  LockId L = B.addLock("counter");
  CodeSiteId Site = B.addSite("counter.cc", "bump", 1, 2);
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread(),
                               B.addThread()};
  for (int Round = 0; Round != 8; ++Round)
    for (ThreadId T : Ids) {
      B.beginCs(T, L, Site);
      B.write(T, 1, 1, WriteOpKind::Add);
      B.endCs(T);
    }
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, 1);
  CsIndex Index = CsIndex::build(Tr);
  uint64_t Calls = 0;
  TopologyGraph Scan = scanTopology(Index, Calls);
  uint64_t Classified = 0;
  TopologyGraph G = buildTopology(Tr, Index, &Classified);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(Scan.numEdges(), 0u);
  EXPECT_EQ(Classified, 1u);
  EXPECT_GT(Calls, 100u);
}

// RULE 1's memo turns on at a lock's first verdict that is not true
// contention, and for that lock only.  Lock "first": four rounds of one
// truly contending key pair, then three rounds of commuting adds (one
// benign key pair).  Lock "second": three rounds of one truly
// contending key pair, built after the memo of "first" turned on.
TEST(TopologyTest, MemoStartsAtFirstWastedClassification) {
  TraceBuilder B;
  LockId First = B.addLock("first");
  LockId Second = B.addLock("second");
  CodeSiteId Update = B.addSite("memo.cc", "update", 1, 3);
  CodeSiteId Bump = B.addSite("memo.cc", "bump", 4, 5);
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread()};
  std::vector<std::vector<CsRef>> Schedule(2);
  std::vector<uint32_t> NextIndex(Ids.size(), 0);
  auto section = [&](ThreadId T, LockId L, CodeSiteId Site, AddrId Addr) {
    B.beginCs(T, L, Site);
    if (Site == Bump) {
      B.write(T, Addr, 1, WriteOpKind::Add);
    } else {
      B.read(T, Addr, 0);
      B.write(T, Addr, T + 1);
    }
    B.endCs(T);
    Schedule[L].push_back(CsRef{T, NextIndex[T]++});
  };
  for (int Round = 0; Round != 4; ++Round)
    for (ThreadId T : Ids)
      section(T, First, Update, 1);
  for (int Round = 0; Round != 3; ++Round)
    for (ThreadId T : Ids)
      section(T, First, Bump, 2);
  for (int Round = 0; Round != 3; ++Round)
    for (ThreadId T : Ids)
      section(T, Second, Update, 3);
  Trace Tr = B.finish();
  Tr.LockSchedule = Schedule;
  CsIndex Index = CsIndex::build(Tr);

  uint64_t Calls = 0;
  TopologyGraph Scan = scanTopology(Index, Calls);
  uint64_t Classified = 0;
  TopologyGraph G = buildTopology(Tr, Index, &Classified);
  EXPECT_EQ(edgeList(G), edgeList(Scan));
  std::vector<uint64_t> EdgesOf(2, 0);
  for (const TopologyEdge &E : G.edges())
    ++EdgesOf[Index.byGlobalId(E.From).Lock];
  EXPECT_EQ(EdgesOf[First], 7u);
  EXPECT_EQ(EdgesOf[Second], 5u);
  // "first": one classification per edge before the memo, then one
  // for the benign key pair; "second" starts without a memo, so every
  // edge costs one classification.
  EXPECT_EQ(Classified, EdgesOf[First] + 1 + EdgesOf[Second]);
  EXPECT_EQ(Classified, 13u);
  EXPECT_GT(Calls, Classified);
}

// RULE 3 builds each lockset in predecessor order, so both CSR runs
// keep edge-insertion order rather than node order.
TEST(TopologyTest, AdjacencyKeepsEdgeInsertionOrder) {
  std::vector<TopologyEdge> Edges = {{3, 1}, {0, 1}, {3, 0},
                                     {2, 1}, {3, 2}, {4, 0}};
  TopologyGraph G(6, Edges);
  EXPECT_EQ(G.numNodes(), 6u);
  EXPECT_EQ(G.edges(), Edges);
  EXPECT_EQ(toVector(G.successors(3)), (std::vector<uint32_t>{1, 0, 2}));
  EXPECT_EQ(toVector(G.predecessors(1)), (std::vector<uint32_t>{3, 0, 2}));
  EXPECT_EQ(toVector(G.predecessors(0)), (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(toVector(G.successors(0)), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(G.successors(1).empty());
  EXPECT_EQ(G.outDegree(3), 3u);
  EXPECT_EQ(G.inDegree(1), 3u);
  EXPECT_FALSE(G.isStandalone(4));
  EXPECT_TRUE(G.isStandalone(5));
  TopologyGraph Empty(0);
  EXPECT_EQ(Empty.numNodes(), 0u);
  EXPECT_EQ(Empty.numEdges(), 0u);
}

//===----------------------------------------------------------------------===//
// RULE 1: linked postings against the sorted posting index they replace
//===----------------------------------------------------------------------===//

namespace {

/// The sorted-posting RULE 1 that linked postings replaced, kept as an
/// oracle: per lock, every (thread, access, id, position) posting is
/// sorted, each (query, thread) pair binary-searches its list's first
/// posting past the section, and a heap merges the lists.  The verdict
/// memo turns on at a lock's first verdict that is not TrueContention.
class SortedPostingTopology {
public:
  SortedPostingTopology(const Trace &Tr, const CsIndex &Index)
      : Tr(Tr), Index(Index) {
    for (LockId L = 0; L != Index.numLocks(); ++L) {
      const std::vector<uint32_t> &Order = Index.sectionsOfLock(L);
      indexLock(Order);
      MemoOn = false;
      for (uint32_t I = 0; I != Order.size(); ++I)
        matchSection(Order, I);
    }
  }

  std::vector<TopologyEdge> Edges;
  uint64_t NumClassified = 0;

private:
  enum class Access : uint8_t { Reads, Writes, WaitsOn, SignalsOn };
  struct Posting {
    ThreadId Thread;
    Access Tag;
    uint64_t Id;
    uint32_t Pos;
    bool operator<(const Posting &RHS) const {
      return std::tie(Thread, Tag, Id, Pos) <
             std::tie(RHS.Thread, RHS.Tag, RHS.Id, RHS.Pos);
    }
    bool sameList(const Posting &RHS) const {
      return Thread == RHS.Thread && Tag == RHS.Tag && Id == RHS.Id;
    }
  };
  struct Query {
    Access Tag;
    uint64_t Id;
  };
  struct Cursor {
    uint32_t Pos;
    size_t At;
    bool operator<(const Cursor &RHS) const { return Pos > RHS.Pos; }
  };

  void indexLock(const std::vector<uint32_t> &Order) {
    Postings.clear();
    Threads.clear();
    for (uint32_t Pos = 0; Pos != Order.size(); ++Pos) {
      const CriticalSection &Cs = Index.byGlobalId(Order[Pos]);
      ThreadId T = Cs.Ref.Thread;
      Threads.push_back(T);
      for (AddrId A : Index.reads(Cs))
        Postings.push_back(Posting{T, Access::Reads, A, Pos});
      for (AddrId A : Index.writes(Cs))
        Postings.push_back(Posting{T, Access::Writes, A, Pos});
      for (LockId C : Index.condWaits(Cs))
        Postings.push_back(Posting{T, Access::WaitsOn, C, Pos});
      for (LockId C : Index.condSignals(Cs))
        Postings.push_back(Posting{T, Access::SignalsOn, C, Pos});
    }
    std::sort(Postings.begin(), Postings.end());
    std::sort(Threads.begin(), Threads.end());
    Threads.erase(std::unique(Threads.begin(), Threads.end()), Threads.end());
  }

  void matchSection(const std::vector<uint32_t> &Order, uint32_t I) {
    const CriticalSection &A = Index.byGlobalId(Order[I]);
    std::vector<Query> Queries;
    for (AddrId Addr : Index.reads(A))
      Queries.push_back(Query{Access::Writes, Addr});
    for (AddrId Addr : Index.writes(A)) {
      Queries.push_back(Query{Access::Reads, Addr});
      Queries.push_back(Query{Access::Writes, Addr});
    }
    for (LockId C : Index.condWaits(A))
      Queries.push_back(Query{Access::SignalsOn, C});
    for (LockId C : Index.condSignals(A))
      Queries.push_back(Query{Access::WaitsOn, C});
    if (Queries.empty())
      return;
    std::vector<uint32_t> Matches;
    for (ThreadId U : Threads) {
      if (U == A.Ref.Thread)
        continue;
      uint32_t Pos = firstContender(Order, Queries, U, I);
      if (Pos != InvalidId)
        Matches.push_back(Pos);
    }
    std::sort(Matches.begin(), Matches.end());
    for (uint32_t Pos : Matches)
      Edges.push_back(TopologyEdge{A.GlobalId, Order[Pos]});
  }

  uint32_t firstContender(const std::vector<uint32_t> &Order,
                          const std::vector<Query> &Queries, ThreadId U,
                          uint32_t I) {
    std::vector<Cursor> Heap;
    for (const Query &Q : Queries) {
      Posting Probe{U, Q.Tag, Q.Id, I + 1};
      auto It = std::lower_bound(Postings.begin(), Postings.end(), Probe);
      if (It != Postings.end() && It->sameList(Probe))
        Heap.push_back(
            Cursor{It->Pos, static_cast<size_t>(It - Postings.begin())});
    }
    std::make_heap(Heap.begin(), Heap.end());
    while (!Heap.empty()) {
      uint32_t Pos = Heap.front().Pos;
      while (!Heap.empty() && Heap.front().Pos == Pos) {
        std::pop_heap(Heap.begin(), Heap.end());
        Cursor &C = Heap.back();
        size_t Next = C.At + 1;
        if (Next != Postings.size() &&
            Postings[Next].sameList(Postings[C.At])) {
          C = Cursor{Postings[Next].Pos, Next};
          std::push_heap(Heap.begin(), Heap.end());
        } else {
          Heap.pop_back();
        }
      }
      if (classify(Order, I, Pos) == UlcpKind::TrueContention)
        return Pos;
    }
    return InvalidId;
  }

  UlcpKind classify(const std::vector<uint32_t> &Order, uint32_t I,
                    uint32_t J) {
    if (MemoOn)
      if (const UlcpKind *Cached = Verdicts.find(memoKey(I, J)))
        return *Cached;
    UlcpKind Verdict = classifyPair(Index, Index.byGlobalId(Order[I]),
                                    Index.byGlobalId(Order[J]));
    ++NumClassified;
    if (!MemoOn) {
      if (Verdict == UlcpKind::TrueContention)
        return Verdict;
      SignatureInterner Interner;
      KeyOfPos.clear();
      for (uint32_t GlobalId : Order)
        KeyOfPos.push_back(Interner.intern(Tr, Index.byGlobalId(GlobalId)));
      Verdicts.clear();
      MemoOn = true;
    }
    Verdicts.insert(memoKey(I, J), Verdict);
    return Verdict;
  }

  uint64_t memoKey(uint32_t I, uint32_t J) const {
    return SectionKeyTable::pairKey(KeyOfPos[I], KeyOfPos[J]);
  }

  const Trace &Tr;
  const CsIndex &Index;
  bool MemoOn = false;
  std::vector<uint32_t> KeyOfPos;
  FlatMap<uint64_t, UlcpKind> Verdicts;
  std::vector<Posting> Postings;
  std::vector<ThreadId> Threads;
};

/// A trace of two threads on one lock, granted in the order its
/// sections are added.
struct OneLockTrace {
  TraceBuilder B;
  LockId L = B.addLock("L");
  CodeSiteId Site = B.addSite("rule1.cc", "f", 1, 2);
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread()};
  std::vector<CsRef> Schedule;
  std::vector<uint32_t> NextIndex = std::vector<uint32_t>(2, 0);

  /// Adds a section of thread \p T whose body \p Body fills.
  template <typename Fn> void section(unsigned T, Fn Body) {
    B.beginCs(Ids[T], L, Site);
    Body(B, Ids[T]);
    B.endCs(Ids[T]);
    Schedule.push_back(CsRef{Ids[T], NextIndex[T]++});
  }

  Trace finish() {
    Trace Tr = B.finish();
    Tr.LockSchedule.assign(Tr.Locks.size(), {});
    Tr.LockSchedule[L] = Schedule;
    return Tr;
  }
};

} // namespace

// Every app and synthetic app at 4 threads (scales 1 and 4) and at 16
// and 64 threads (scale 1), two seeds each: the edges, in order, and
// the classification count equal the sorted posting index's.
TEST(TopologyTest, LinkedPostingsMatchSortedPostingIndex) {
  std::vector<AppModel> Models = allApps();
  Models.insert(Models.end(), syntheticApps().begin(),
                syntheticApps().end());
  Engine Eng;
  const std::vector<std::pair<unsigned, double>> Shapes = {
      {4, 1.0}, {4, 4.0}, {16, 1.0}, {64, 1.0}};
  for (const AppModel &App : Models)
    for (auto [Threads, Scale] : Shapes)
      for (uint64_t Seed : {1, 2}) {
        SCOPED_TRACE(App.Name + " threads " + std::to_string(Threads) +
                     " scale " + std::to_string(Scale) + " seed " +
                     std::to_string(Seed));
        WorkloadSpec Spec = App.Factory(Threads, Scale);
        Spec.Seed = Seed;
        AnalysisSession Session = Eng.openSession(generateWorkload(Spec));
        ASSERT_TRUE(Session.ensureRecorded().ok());
        Expected<const CsIndex &> Index = Session.csIndex();
        ASSERT_TRUE(Index.ok()) << Index.message();

        SortedPostingTopology Want(Session.trace(), *Index);
        uint64_t Classified = 0;
        TopologyGraph Got = buildTopology(Session.trace(), *Index, &Classified);
        EXPECT_EQ(Got.edges(), Want.Edges);
        EXPECT_EQ(Classified, Want.NumClassified);
      }
}

// Section 0 reads and writes x and waits on cv; section 1 of another
// thread writes x and signals cv, so it heads three of the lists 0
// queries (and one of them twice).  It is classified once and gets one
// edge; thread 1's later writer is never reached.
TEST(TopologyTest, SectionInSeveralListsClassifiedOnce) {
  OneLockTrace T;
  LockId Cv = T.B.addLock("cv");
  T.section(0, [&](TraceBuilder &B, ThreadId Id) {
    B.read(Id, 1, 0);
    B.write(Id, 1, 4);
    B.condWait(Id, Cv);
  });
  T.section(1, [&](TraceBuilder &B, ThreadId Id) {
    B.write(Id, 1, 5);
    B.condSignal(Id, Cv);
  });
  T.section(1, [](TraceBuilder &B, ThreadId Id) { B.write(Id, 1, 6); });
  Trace Tr = T.finish();
  CsIndex Index = CsIndex::build(Tr);
  uint64_t Classified = 0;
  TopologyGraph G = buildTopology(Tr, Index, &Classified);
  EXPECT_EQ(edgeList(G),
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 1}}));
  EXPECT_EQ(Classified, 1u);
}

// Thread 1's first candidate for section 0 is a commuting add (benign)
// and its second reads x (true contention): the edge skips to the
// second, and the benign verdict turns the memo on, so every later
// pair repeats a classified key pair and costs no classification.
//   lock order: A0(t0) B0(t1) C0(t1) A1(t0) B1(t1) C1(t1)
//   global ids: A0=0 A1=1 B0=2 C0=3 B1=4 C1=5
TEST(TopologyTest, BenignFirstCandidateSearchesOnAndStartsMemo) {
  OneLockTrace T;
  auto add = [](TraceBuilder &B, ThreadId Id) {
    B.write(Id, 1, 1, WriteOpKind::Add);
  };
  auto read = [](TraceBuilder &B, ThreadId Id) { B.read(Id, 1, 0); };
  for (int Round = 0; Round != 2; ++Round) {
    T.section(0, add);
    T.section(1, add);
    T.section(1, read);
  }
  Trace Tr = T.finish();
  CsIndex Index = CsIndex::build(Tr);
  uint64_t Classified = 0;
  TopologyGraph G = buildTopology(Tr, Index, &Classified);
  // A0 -> C0 past the benign B0; C0 -> A1; A1 -> C1 past B1.
  EXPECT_EQ(edgeList(G), (std::vector<std::pair<uint32_t, uint32_t>>{
                             {0, 3}, {3, 1}, {1, 5}}));
  // A0:B0 (turns the memo on) and A0:C0; B0:A1, C0:A1, A1:B1 and
  // A1:C1 repeat one of those two key pairs (a key pair is unordered)
  // and hit the memo.
  EXPECT_EQ(Classified, 2u);
  SortedPostingTopology Want(Tr, Index);
  EXPECT_EQ(G.edges(), Want.Edges);
  EXPECT_EQ(Classified, Want.NumClassified);
}

// With the memo on, a section takes an equal-keyed section's search
// answer only while that answer lies ahead of it: A1 reuses A0's C0,
// A2 (past C0) searches again and finds C1.
//   lock order: A0(t0) B0(t1) A1(t0) C0(t1) A2(t0) C1(t1)
//   global ids: A0=0 A1=1 A2=2 B0=3 C0=4 C1=5
TEST(TopologyTest, SearchAnswerReusedOnlyWhileAhead) {
  OneLockTrace T;
  auto add = [](TraceBuilder &B, ThreadId Id) {
    B.write(Id, 1, 1, WriteOpKind::Add);
  };
  auto read = [](TraceBuilder &B, ThreadId Id) { B.read(Id, 1, 0); };
  T.section(0, add);
  T.section(1, add);
  T.section(0, add);
  T.section(1, read);
  T.section(0, add);
  T.section(1, read);
  Trace Tr = T.finish();
  CsIndex Index = CsIndex::build(Tr);
  uint64_t Classified = 0;
  TopologyGraph G = buildTopology(Tr, Index, &Classified);
  EXPECT_EQ(edgeList(G), (std::vector<std::pair<uint32_t, uint32_t>>{
                             {0, 4}, {1, 4}, {4, 2}, {2, 5}}));
  // A0:B0 turns the memo on, A0:C0 truly contends; the rest are hits.
  EXPECT_EQ(Classified, 2u);
  SortedPostingTopology Want(Tr, Index);
  EXPECT_EQ(G.edges(), Want.Edges);
  EXPECT_EQ(Classified, Want.NumClassified);
}

// Thread 0's only conflicting section (0) precedes section 1 of thread
// 1 in lock order, so 1 gets no edge back to it; thread 0's later
// section touches another address.
//   lock order: S0(t0, writes x) S1(t1, writes x) S2(t0, reads y)
//   global ids: S0=0 S2=1 S1=2
TEST(TopologyTest, ConflictBeforeInLockOrderGetsNoEdge) {
  OneLockTrace T;
  T.section(0, [](TraceBuilder &B, ThreadId Id) { B.write(Id, 1, 1); });
  T.section(1, [](TraceBuilder &B, ThreadId Id) { B.write(Id, 1, 2); });
  T.section(0, [](TraceBuilder &B, ThreadId Id) { B.read(Id, 2, 0); });
  Trace Tr = T.finish();
  CsIndex Index = CsIndex::build(Tr);
  uint64_t Classified = 0;
  TopologyGraph G = buildTopology(Tr, Index, &Classified);
  EXPECT_EQ(edgeList(G),
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 2}}));
  EXPECT_EQ(Classified, 1u);
}

//===----------------------------------------------------------------------===//
// RULE 3: lockset assignment of the Figure 8 example
//===----------------------------------------------------------------------===//

namespace {

std::set<LockId> locksetOf(const TransformResult &R, uint32_t Cs) {
  std::set<LockId> Out;
  const Trace &Tr = R.Transformed;
  CsRef Ref = Tr.csRefOf(Cs);
  uint32_t Index = 0;
  for (const Event &E : Tr.Threads[Ref.Thread].Events)
    if (E.Kind == EventKind::LockAcquire) {
      if (Index++ != Ref.Index)
        continue;
      if (E.lockset() != InvalidId)
        for (const LocksetEntry &Entry : Tr.Locksets[E.lockset()].Entries)
          Out.insert(Entry.Lock);
      break;
    }
  return Out;
}

} // namespace

TEST(TransformTest, Figure8AuxiliaryLocks) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);

  // Nodes with outdegree get their own auxiliary lock.
  EXPECT_NE(R.AuxLockOfCs[Figure7::R1T1], InvalidId);
  EXPECT_NE(R.AuxLockOfCs[Figure7::W1T2], InvalidId);
  EXPECT_NE(R.AuxLockOfCs[Figure7::W1T3a], InvalidId);
  // Pure-indegree and standalone nodes get none.
  EXPECT_EQ(R.AuxLockOfCs[Figure7::W1T3b], InvalidId);
  EXPECT_EQ(R.AuxLockOfCs[Figure7::R2T1], InvalidId);
  EXPECT_EQ(R.NumAuxLocks, 3u);
  EXPECT_EQ(R.NumStandalone, 2u);

  // Auxiliary lock names carry the @L prefix for discrimination.
  for (uint32_t Cs : {Figure7::R1T1, Figure7::W1T2, Figure7::W1T3a}) {
    std::string_view Name = R.Transformed.lockName(R.AuxLockOfCs[Cs]);
    EXPECT_EQ(Name.substr(0, 2), "@L");
  }
}

TEST(TransformTest, Figure8Locksets) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  LockId L11 = R.AuxLockOfCs[Figure7::R1T1];
  LockId L21 = R.AuxLockOfCs[Figure7::W1T2];
  LockId L31 = R.AuxLockOfCs[Figure7::W1T3a];

  // The paper's example: the first W1 in T3 ends with LS={@L11,@L31}.
  EXPECT_EQ(locksetOf(R, Figure7::W1T3a), (std::set<LockId>{L11, L31}));
  EXPECT_EQ(locksetOf(R, Figure7::R1T1), (std::set<LockId>{L11}));
  EXPECT_EQ(locksetOf(R, Figure7::W1T2),
            (std::set<LockId>{L21, L11, L31}));
  EXPECT_EQ(locksetOf(R, Figure7::W1T3b), (std::set<LockId>{L21}));
  // Standalone nodes: empty lockset (lock removed).
  EXPECT_TRUE(locksetOf(R, Figure7::R2T1).empty());
  EXPECT_TRUE(locksetOf(R, Figure7::R2T2).empty());
}

namespace {

/// RULE 2 and 3 as transformTrace built them before the flat lockset
/// table: one std::string per auxiliary lock name and one heap
/// std::vector per lockset.
struct VectorRule3 {
  std::vector<std::string> AuxNames;
  std::vector<bool> AuxSpin;
  std::vector<Lockset> Locksets;
  uint64_t NumStandalone = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Constraints;
};

VectorRule3 vectorRule3(const Trace &Tr, const CsIndex &Index,
                        const TopologyGraph &Topo) {
  VectorRule3 Out;
  size_t NumCs = Index.size();
  std::vector<LockId> AuxLockOfCs(NumCs, InvalidId);
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    if (Topo.outDegree(Cs) == 0)
      continue;
    const CriticalSection &Section = Index.byGlobalId(Cs);
    Out.AuxNames.push_back("@L" + std::to_string(Section.Ref.Thread) + "_" +
                           std::to_string(Section.Ref.Index));
    Out.AuxSpin.push_back(Tr.Locks[Section.Lock].IsSpin);
    AuxLockOfCs[Cs] =
        static_cast<LockId>(Tr.Locks.size() + Out.AuxNames.size() - 1);
  }
  for (LocksetId I = 0; I != Tr.Locksets.size(); ++I) {
    Lockset LS;
    for (const LocksetEntry &E : Tr.Locksets[I].Entries)
      LS.Entries.push_back(E);
    Out.Locksets.push_back(std::move(LS));
  }
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    Lockset LS;
    if (AuxLockOfCs[Cs] != InvalidId)
      LS.Entries.push_back(LocksetEntry{AuxLockOfCs[Cs], InvalidId});
    for (uint32_t Pred : Topo.predecessors(Cs))
      LS.Entries.push_back(LocksetEntry{AuxLockOfCs[Pred], Pred});
    if (LS.Entries.empty())
      ++Out.NumStandalone;
    Out.Locksets.push_back(std::move(LS));
  }
  for (const TopologyEdge &E : Topo.edges())
    Out.Constraints.push_back({E.From, E.To});
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    uint32_t PrevCausal = InvalidId;
    for (uint32_t Cs : Index.sectionsOfLock(L)) {
      if (Topo.isStandalone(Cs))
        continue;
      if (PrevCausal != InvalidId) {
        NodeList Succ = Topo.successors(PrevCausal);
        if (std::find(Succ.begin(), Succ.end(), Cs) == Succ.end())
          Out.Constraints.push_back({PrevCausal, Cs});
      }
      PrevCausal = Cs;
    }
  }
  return Out;
}

} // namespace

// Every app and synthetic app at 4 threads (scales 1 and 4) and at 16
// and 64 threads (scale 1): the flat lockset table holds the vector
// builder's locksets entry for entry, the auxiliary locks carry its
// names and spin flags, and the table survives the text and v3 round
// trips.
TEST(TransformTest, FlatLocksetTableMatchesVectorBuilder) {
  std::vector<AppModel> Models = allApps();
  Models.insert(Models.end(), syntheticApps().begin(),
                syntheticApps().end());
  Engine Eng;
  const std::vector<std::pair<unsigned, double>> Shapes = {
      {4, 1.0}, {4, 4.0}, {16, 1.0}, {64, 1.0}};
  for (const AppModel &App : Models)
    for (auto [Threads, Scale] : Shapes) {
      SCOPED_TRACE(App.Name + " threads " + std::to_string(Threads) +
                   " scale " + std::to_string(Scale));
      AnalysisSession Session =
          Eng.openSession(generateWorkload(App.Factory(Threads, Scale)));
      ASSERT_TRUE(Session.ensureRecorded().ok());
      const Trace &Tr = Session.trace();
      Expected<const CsIndex &> Index = Session.csIndex();
      ASSERT_TRUE(Index.ok()) << Index.message();
      Expected<const TransformResult &> Tx = Session.transform();
      ASSERT_TRUE(Tx.ok()) << Tx.message();
      const Trace &Out = Tx->Transformed;

      VectorRule3 Want = vectorRule3(Tr, *Index, Tx->Topology);
      ASSERT_EQ(Out.Locks.size(), Tr.Locks.size() + Want.AuxNames.size());
      EXPECT_EQ(Tx->NumAuxLocks, Want.AuxNames.size());
      for (size_t K = 0; K != Want.AuxNames.size(); ++K) {
        LockId Aux = static_cast<LockId>(Tr.Locks.size() + K);
        ASSERT_EQ(Out.lockName(Aux), Want.AuxNames[K]);
        ASSERT_EQ(Out.Locks[Aux].IsSpin, Want.AuxSpin[K]);
      }
      ASSERT_EQ(Out.Locksets.size(), Want.Locksets.size());
      for (LocksetId I = 0; I != Want.Locksets.size(); ++I) {
        const std::vector<LocksetEntry> &WantEntries =
            Want.Locksets[I].Entries;
        Span<LocksetEntry> Got = Out.Locksets[I].Entries;
        ASSERT_EQ(std::vector<LocksetEntry>(Got.begin(), Got.end()),
                  WantEntries)
            << "lockset " << I;
      }
      EXPECT_EQ(Tx->NumStandalone, Want.NumStandalone);
      std::vector<std::pair<uint32_t, uint32_t>> Constraints;
      for (const OrderConstraint &C : Out.Constraints)
        Constraints.push_back({C.Before, C.After});
      EXPECT_EQ(Constraints, Want.Constraints);

      std::string Err;
      Trace FromText;
      ASSERT_TRUE(parseTraceText(writeTraceText(Out), FromText, Err)) << Err;
      EXPECT_TRUE(FromText.Locksets == Out.Locksets);
      std::vector<uint8_t> Bytes = writeTraceV3(Out);
      Trace FromV3;
      ASSERT_TRUE(parseTraceV3(Bytes.data(), Bytes.size(), FromV3, Err))
          << Err;
      EXPECT_TRUE(FromV3.Locksets == Out.Locksets);
    }
}

TEST(TransformTest, Rule2ConstraintsPreservePartialOrder) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  std::set<std::pair<uint32_t, uint32_t>> Cons;
  for (const OrderConstraint &C : R.Transformed.Constraints)
    Cons.insert({C.Before, C.After});
  // The chain R1(T1) < W1st(T3) < W1(T2) < W2nd(T3) must be present.
  EXPECT_TRUE(Cons.count({Figure7::R1T1, Figure7::W1T3a}));
  EXPECT_TRUE(Cons.count({Figure7::W1T3a, Figure7::W1T2}));
  EXPECT_TRUE(Cons.count({Figure7::W1T2, Figure7::W1T3b}));
  // Standalone nodes appear in no constraint.
  for (const auto &[Before, After] : Cons) {
    EXPECT_NE(Before, Figure7::R2T1);
    EXPECT_NE(After, Figure7::R2T2);
  }
}

TEST(TransformTest, TransformedTraceValidates) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  EXPECT_EQ(R.Transformed.validate(), "");
  EXPECT_EQ(R.Transformed.numCriticalSections(),
            F.Tr.numCriticalSections());
}

TEST(TransformTest, ReplayPreservesCausalOrder) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  ReplayOptions Opts;
  ReplayResult Replay = replayTrace(R.Transformed, Opts);
  ASSERT_TRUE(Replay.ok()) << Replay.Error;
  // Causal (true-contention) pairs remain mutually exclusive and
  // ordered: each edge's target is granted at/after the source grant
  // and never overlaps it.
  for (const TopologyEdge &E : R.Topology.edges()) {
    EXPECT_GE(Replay.Sections[E.To].Granted,
              Replay.Sections[E.From].Granted);
    EXPECT_GE(Replay.Sections[E.To].Granted,
              Replay.Sections[E.From].Released);
  }
}

TEST(TransformTest, UlcpFreeReplayNoSlowerThanOriginal) {
  Figure7 F;
  recordGrantSchedule(F.Tr, 3);
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  ReplayOptions Opts;
  Opts.Costs.LocksetMaintain = 0; // Compare pure ordering effect.
  ReplayResult Orig = replayTrace(F.Tr, Opts);
  ReplayResult Free = replayTrace(R.Transformed, Opts);
  ASSERT_TRUE(Orig.ok() && Free.ok());
  EXPECT_LE(Free.TotalTime, Orig.TotalTime);
}

//===----------------------------------------------------------------------===//
// Properties over generated traces
//===----------------------------------------------------------------------===//

namespace {

Trace propertyTrace(uint64_t Seed) {
  TraceBuilder B;
  LockId L0 = B.addLock("a");
  LockId L1 = B.addLock("b");
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread(),
                               B.addThread()};
  uint64_t State = Seed;
  auto next = [&State] { return State = splitMix64(State); };
  for (ThreadId T : Ids)
    for (int S = 0; S != 5; ++S) {
      LockId L = next() % 2 ? L0 : L1;
      B.compute(T, next() % 400 + 1);
      B.beginCs(T, L);
      switch (next() % 4) {
      case 0:
        break; // Null body.
      case 1:
        B.read(T, L * 100, 0);
        break;
      case 2:
        B.write(T, L * 100 + T + 1, next() % 50);
        break;
      case 3:
        B.read(T, L * 100, 0);
        B.write(T, L * 100, next() % 50);
        break;
      }
      B.compute(T, next() % 200 + 1);
      B.endCs(T);
    }
  Trace Tr = B.finish();
  recordGrantSchedule(Tr, Seed);
  return Tr;
}

class TransformPropertyTest : public testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(TransformPropertyTest, TransformedAlwaysValid) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  EXPECT_EQ(R.Transformed.validate(), "");
}

TEST_P(TransformPropertyTest, TransformedReplayDeterministic) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  ReplayOptions A;
  A.Seed = 1;
  ReplayOptions B;
  B.Seed = 999;
  ReplayResult RA = replayTrace(R.Transformed, A);
  ReplayResult RB = replayTrace(R.Transformed, B);
  ASSERT_TRUE(RA.ok() && RB.ok()) << RA.Error << RB.Error;
  EXPECT_EQ(RA.TotalTime, RB.TotalTime);
}

TEST_P(TransformPropertyTest, TrueContentionStaysExclusive) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  ReplayResult Replay = replayTrace(R.Transformed, ReplayOptions());
  ASSERT_TRUE(Replay.ok()) << Replay.Error;
  for (const TopologyEdge &E : R.Topology.edges())
    EXPECT_GE(Replay.Sections[E.To].Granted,
              Replay.Sections[E.From].Released)
        << "edge " << E.From << "->" << E.To;
}

TEST_P(TransformPropertyTest, DlsEquivalentToFullLocksets) {
  Trace Tr = propertyTrace(GetParam());
  CsIndex Index = CsIndex::build(Tr);
  TransformResult R = transformTrace(Tr, Index);
  ReplayOptions WithDls;
  WithDls.UseDynamicLocking = true;
  // Zero per-lock costs so the only observable difference DLS could
  // introduce is an ordering one — which there must not be.
  WithDls.Costs.LocksetMaintain = 0;
  WithDls.Costs.LocksetMaintainDls = 0;
  WithDls.Costs.LocksetEndCheck = 0;
  WithDls.Costs.LockAcquire = 0;
  WithDls.Costs.LockRelease = 0;
  ReplayOptions NoDls = WithDls;
  NoDls.UseDynamicLocking = false;
  ReplayResult RDls = replayTrace(R.Transformed, WithDls);
  ReplayResult RFull = replayTrace(R.Transformed, NoDls);
  ASSERT_TRUE(RDls.ok() && RFull.ok());
  // DLS may only skip locks whose source finished: ordering of causal
  // pairs is unchanged, and with zero maintenance cost so is the time.
  EXPECT_EQ(RDls.TotalTime, RFull.TotalTime);
  EXPECT_LE(RDls.LocksetLocksAcquired, RFull.LocksetLocksAcquired);
  for (const TopologyEdge &E : R.Topology.edges())
    EXPECT_GE(RDls.Sections[E.To].Granted,
              RDls.Sections[E.From].Released);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformPropertyTest,
                         testing::Values(101, 202, 303, 404, 505, 606,
                                         707, 808));

//===----------------------------------------------------------------------===//
// Theorem 1: race reporting
//===----------------------------------------------------------------------===//

TEST(RaceCheckTest, CleanTransformReportsNoRaces) {
  Figure7 F;
  CsIndex Index = CsIndex::build(F.Tr);
  TransformResult R = transformTrace(F.Tr, Index);
  std::vector<RaceReport> Races =
      checkRaces(R.Transformed, Index, R.Topology);
  EXPECT_TRUE(Races.empty());
}

TEST(RaceCheckTest, ExposedConflictIsReported) {
  // Two sections that conflict on addr 9 but were (wrongly) given
  // empty locksets and no ordering: the race check must flag them.
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, L);
  B.write(T0, 9, 1);
  B.endCs(T0);
  B.beginCs(T1, L);
  B.write(T1, 9, 2);
  B.endCs(T1);
  Trace Tr = B.finish();
  Tr.Locksets.push_back(Lockset());
  for (auto &Thread : Tr.Threads)
    for (auto &E : Thread.Events)
      if (E.Kind == EventKind::LockAcquire)
        E.setLockset(0);
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(Tr.numCriticalSections());
  std::vector<RaceReport> Races = checkRaces(Tr, Index, EmptyTopo);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].Addr, 9u);
}

TEST(RaceCheckTest, SharedLockSuppressesRace) {
  TraceBuilder B;
  LockId L = B.addLock("L");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, L);
  B.write(T0, 9, 1);
  B.endCs(T0);
  B.beginCs(T1, L);
  B.write(T1, 9, 2);
  B.endCs(T1);
  Trace Tr = B.finish(); // Untransformed: plain {L} locksets.
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(Tr.numCriticalSections());
  EXPECT_TRUE(checkRaces(Tr, Index, EmptyTopo).empty());
}

TEST(RaceCheckTest, MultiLockLocksetsProtectIffTheyShareALock) {
  // Transformed locksets with more than one lock: sections holding
  // {A1, A2} and {A2, A3} exclude each other through A2, so their
  // conflict on addr 9 is protected; sections holding {A1} and {A3}
  // share no lock, so their conflict on addr 10 is the one race.
  TraceBuilder B;
  LockId L = B.addLock("L");
  LockId A1 = B.addLock("A1");
  LockId A2 = B.addLock("A2");
  LockId A3 = B.addLock("A3");
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread(),
                               B.addThread(), B.addThread()};
  const AddrId Addrs[] = {9, 9, 10, 10};
  for (unsigned T = 0; T != Ids.size(); ++T) {
    B.beginCs(Ids[T], L);
    B.write(Ids[T], Addrs[T], T + 1);
    B.endCs(Ids[T]);
  }
  Trace Tr = B.finish();
  const std::vector<std::vector<LockId>> Held = {
      {A1, A2}, {A2, A3}, {A1}, {A3}};
  for (unsigned T = 0; T != Ids.size(); ++T) {
    Lockset Set;
    for (LockId Lock : Held[T])
      Set.Entries.push_back(LocksetEntry{Lock, InvalidId});
    Tr.Locksets.push_back(Set);
    for (Event &E : Tr.Threads[Ids[T]].Events)
      if (E.Kind == EventKind::LockAcquire)
        E.setLockset(T);
  }
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(Tr.numCriticalSections());
  std::vector<RaceReport> Races = checkRaces(Tr, Index, EmptyTopo);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].Addr, 10u);
  EXPECT_EQ(std::min(Races[0].ThreadA, Races[0].ThreadB), Ids[2]);
  EXPECT_EQ(std::max(Races[0].ThreadA, Races[0].ThreadB), Ids[3]);
}

TEST(RaceCheckTest, ThreeHopChainAcrossWordBoundariesOrders) {
  // Sections A (id 0) and D (id 131) write addr 9 under different
  // locks; only the chain A -> B (60) -> C (100) -> D orders them, one
  // section in each of the first three 64-bit words of a reach row.
  TraceBuilder B;
  LockId LA = B.addLock("LA");
  LockId LB = B.addLock("LB");
  LockId LC = B.addLock("LC");
  LockId LD = B.addLock("LD");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  ThreadId T2 = B.addThread();
  ThreadId T3 = B.addThread();
  B.beginCs(T0, LA);
  B.write(T0, 9, 1);
  B.endCs(T0);
  for (ThreadId T : {T1, T2}) {
    LockId L = T == T1 ? LB : LC;
    for (uint32_t I = 0; I != (T == T1 ? 60u : 70u); ++I) {
      B.beginCs(T, L);
      B.read(T, 100 + T, 0);
      B.endCs(T);
    }
  }
  B.beginCs(T3, LD);
  B.write(T3, 9, 2);
  B.endCs(T3);
  Trace Tr = B.finish();
  ASSERT_EQ(Tr.numCriticalSections(), 132u);
  const uint32_t A = 0, Bs = Tr.globalCsId(CsRef{T1, 59}),
                 C = Tr.globalCsId(CsRef{T2, 39}), D = 131;
  ASSERT_EQ(Bs, 60u);
  ASSERT_EQ(C, 100u);
  Tr.Constraints = {{A, Bs}, {Bs, C}, {C, D}};
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(Tr.numCriticalSections());
  EXPECT_TRUE(checkRaces(Tr, Index, EmptyTopo).empty());

  // Without the middle hop nothing orders A and D: one race.
  Tr.Constraints = {{A, Bs}, {C, D}};
  std::vector<RaceReport> Races = checkRaces(Tr, Index, EmptyTopo);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].Addr, 9u);
  EXPECT_EQ(Races[0].CsA, A);
  EXPECT_EQ(Races[0].CsB, D);
}

TEST(RaceCheckTest, UnlockedConflictingAccessesReported) {
  TraceBuilder B;
  B.addLock("unused");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.write(T0, 5, 1, WriteOpKind::Store, /*AllowUnlocked=*/true);
  B.read(T1, 5, 0, /*AllowUnlocked=*/true);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(0);
  std::vector<RaceReport> Races = checkRaces(Tr, Index, EmptyTopo);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].CsA, InvalidId);
}

TEST(RaceCheckTest, ReadOnlySharingIsNotARace) {
  TraceBuilder B;
  B.addLock("unused");
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.read(T0, 5, 0, /*AllowUnlocked=*/true);
  B.read(T1, 5, 0, /*AllowUnlocked=*/true);
  Trace Tr = B.finish();
  CsIndex Index = CsIndex::build(Tr);
  TopologyGraph EmptyTopo(0);
  EXPECT_TRUE(checkRaces(Tr, Index, EmptyTopo).empty());
}
