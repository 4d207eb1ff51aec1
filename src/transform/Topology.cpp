//===- transform/Topology.cpp - Causal-order topology (RULE 1) -------------===//

#include "transform/Topology.h"

#include "detect/Classify.h"
#include "detect/SectionKey.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace perfplay;

/// One half of the CSR layout, by a stable counting sort of \p Edges
/// on their \p Key end: Run[Offsets[N], Offsets[N+1]) receives, in
/// edge order, the \p Other end of every edge whose Key end is N.
static void layOutRuns(const std::vector<TopologyEdge> &Edges,
                       size_t NumNodes, uint32_t TopologyEdge::*Key,
                       uint32_t TopologyEdge::*Other,
                       std::vector<size_t> &Offsets,
                       std::vector<uint32_t> &Run) {
  Offsets.assign(NumNodes + 1, 0);
  for (const TopologyEdge &E : Edges) {
    assert(E.*Key < NumNodes && "edge endpoint out of range");
    assert(E.From != E.To && "self edge");
    ++Offsets[E.*Key + 1];
  }
  for (size_t N = 0; N != NumNodes; ++N)
    Offsets[N + 1] += Offsets[N];
  Run.resize(Edges.size());
  std::vector<size_t> Next(Offsets.begin(), Offsets.end() - 1);
  for (const TopologyEdge &E : Edges)
    Run[Next[E.*Key]++] = E.*Other;
}

TopologyGraph::TopologyGraph(size_t NumNodes,
                             std::vector<TopologyEdge> EdgeList)
    : Edges(std::move(EdgeList)) {
  layOutRuns(Edges, NumNodes, &TopologyEdge::From, &TopologyEdge::To,
             OutOffsets, Successors);
  layOutRuns(Edges, NumNodes, &TopologyEdge::To, &TopologyEdge::From,
             InOffsets, Predecessors);
}

namespace {

/// What a conflict-index posting says its section did with an id: the
/// only facts classifyPairStatic can turn into true contention.
enum class Access : uint8_t { Reads, Writes, WaitsOn, SignalsOn };

/// One entry of a lock's conflict index: the section at lock-order
/// position Pos, run by Thread, did Tag on Id (an address for
/// Reads/Writes, a condvar id for WaitsOn/SignalsOn).  Sorted, the
/// postings of one (Thread, Tag, Id) form a list ascending in Pos.
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

/// A (Tag, Id) list of another thread that may hold sections truly
/// contending with the section being matched.
struct Query {
  Access Tag;
  uint64_t Id;
};

/// Cursor of the candidate merge: the next posting of one list.
struct Cursor {
  uint32_t Pos;
  size_t At;
  // Inverted so the std heap algorithms keep the smallest Pos on top.
  bool operator<(const Cursor &RHS) const { return Pos > RHS.Pos; }
};

/// RULE 1 over one lock's order at a time, through its conflict index.
class TopologyBuilder {
public:
  TopologyBuilder(const Trace &Tr, const CsIndex &Index)
      : Tr(Tr), Index(Index) {}

  void buildLock(LockId L) {
    const std::vector<uint32_t> &Order = Index.sectionsOfLock(L);
    indexLock(Order);
    MemoOn = false;
    for (uint32_t I = 0; I != Order.size(); ++I)
      matchSection(Order, I);
  }

  uint64_t numClassified() const { return NumClassified; }

  /// The topology of every lock built so far.
  TopologyGraph finish() {
    return TopologyGraph(Index.size(), std::move(Edges));
  }

private:
  /// Posts every section of \p Order under the lists a later true
  /// contender would be found in.
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

  /// Sequential search for the section at position \p I: in every other
  /// thread, the first later section that truly contends with it gets
  /// a causal edge.
  void matchSection(const std::vector<uint32_t> &Order, uint32_t I) {
    const CriticalSection &A = Index.byGlobalId(Order[I]);
    Queries.clear();
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

    Matches.clear();
    for (ThreadId U : Threads) {
      if (U == A.Ref.Thread)
        continue;
      uint32_t Pos = firstContender(Order, U, I);
      if (Pos != InvalidId)
        Matches.push_back(Pos);
    }
    std::sort(Matches.begin(), Matches.end());
    for (uint32_t Pos : Matches)
      Edges.push_back(TopologyEdge{A.GlobalId, Order[Pos]});
  }

  /// Merges thread \p U's lists for the current queries past position
  /// \p I in ascending position, and returns the first candidate that
  /// truly contends with the section at \p I (InvalidId when none does).
  uint32_t firstContender(const std::vector<uint32_t> &Order, ThreadId U,
                          uint32_t I) {
    Heap.clear();
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
      // A section can sit in several of the merged lists; step every
      // cursor past it so it is classified once.
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

  /// classifyPair of the sections at lock-order positions \p I and
  /// \p J, memoized per section-key pair once the lock has produced a
  /// verdict other than TrueContention (see the file comment): sections
  /// with equal keys are indistinguishable to classification.
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
      startMemo(Order);
    }
    Verdicts.insert(memoKey(I, J), Verdict);
    return Verdict;
  }

  /// Interns the sections of \p Order by lock-order position and
  /// empties the memo of any earlier lock.
  void startMemo(const std::vector<uint32_t> &Order) {
    SignatureInterner Interner;
    Interner.reserve(Order.size());
    KeyOfPos.clear();
    for (uint32_t GlobalId : Order)
      KeyOfPos.push_back(Interner.intern(Tr, Index.byGlobalId(GlobalId)));
    Verdicts.clear();
    MemoOn = true;
  }

  uint64_t memoKey(uint32_t I, uint32_t J) const {
    return SectionKeyTable::pairKey(KeyOfPos[I], KeyOfPos[J]);
  }

  const Trace &Tr;
  const CsIndex &Index;
  std::vector<TopologyEdge> Edges;
  uint64_t NumClassified = 0;

  // Lock-local verdict memo, live while MemoOn: section keys by
  // lock-order position and verdicts by key pair.
  bool MemoOn = false;
  std::vector<uint32_t> KeyOfPos;
  FlatMap<uint64_t, UlcpKind> Verdicts;

  // Per-lock conflict index, rebuilt by indexLock.
  std::vector<Posting> Postings;
  std::vector<ThreadId> Threads;
  // Per-section working buffers.
  std::vector<Query> Queries;
  std::vector<Cursor> Heap;
  std::vector<uint32_t> Matches;
};

} // namespace

TopologyGraph perfplay::buildTopology(const Trace &Tr, const CsIndex &Index,
                                      uint64_t *NumClassified) {
  TopologyBuilder Builder(Tr, Index);
  for (LockId L = 0; L != Index.numLocks(); ++L)
    Builder.buildLock(L);
  if (NumClassified)
    *NumClassified = Builder.numClassified();
  return Builder.finish();
}
