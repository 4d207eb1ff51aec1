//===- transform/Topology.cpp - Causal-order topology (RULE 1) -------------===//

#include "transform/Topology.h"

#include "detect/Classify.h"
#include "detect/SectionKey.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <array>
#include <cassert>

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

/// What a posting says its section did with an id: the only facts
/// classifyPairStatic can turn into true contention.
enum class Access : uint8_t { Reads, Writes, WaitsOn, SignalsOn };

/// One posting of a lock's conflict index: the section at lock-order
/// position Pos, and the next posting of the same list (InvalidId at
/// the list's end).
struct Link {
  uint32_t Pos;
  uint32_t Next;
};

/// Cursor of the candidate merge: the next posting of one list.
struct Cursor {
  uint32_t Pos;
  uint32_t At;
  // Inverted so the std heap algorithms keep the smallest Pos on top.
  bool operator<(const Cursor &RHS) const { return Pos > RHS.Pos; }
};

/// A walk over one queried family's lists, ascending by thread slot:
/// FamilyRun[At, End).
struct Walk {
  uint32_t At;
  uint32_t End;
};

/// The key of a family: a lock-local id (an address's dense id, or the
/// condvar id itself) and the access.
uint64_t familyKey(uint32_t Id, Access Tag) {
  return uint64_t(Id) << 2 | uint64_t(Tag);
}

/// The key of a list: its family's id and access, and the thread's
/// lock-local slot.
uint64_t listKey(uint32_t Id, Access Tag, uint32_t Slot) {
  assert(Slot < (1u << 30) && "thread slot does not fit a list key");
  return uint64_t(Id) << 32 | uint64_t(Slot) << 2 | uint64_t(Tag);
}

/// The number of \p Key in \p Map, which numbers keys densely in
/// first-seen order.
template <typename KeyT>
uint32_t numberOf(FlatMap<KeyT, uint32_t> &Map, KeyT Key) {
  if (const uint32_t *Known = Map.find(Key))
    return *Known;
  uint32_t Number = static_cast<uint32_t>(Map.size());
  Map.insert(Key, Number);
  return Number;
}

/// RULE 1 over one lock's order at a time, through its linked postings.
class TopologyBuilder {
public:
  TopologyBuilder(const Trace &Tr, const CsIndex &Index)
      : Tr(Tr), Index(Index), SlotOfThread(Tr.Threads.size(), InvalidId) {}

  void buildLock(LockId L) {
    const std::vector<uint32_t> &Order = Index.sectionsOfLock(L);
    postLock(Order);
    MemoOn = false;
    for (uint32_t I = 0; I != Order.size(); ++I)
      matchSection(Order, I);
    for (ThreadId T : Threads)
      SlotOfThread[T] = InvalidId;
  }

  uint64_t numClassified() const { return NumClassified; }

  /// The topology of every lock built so far.
  TopologyGraph finish() {
    return TopologyGraph(Index.size(), std::move(Edges));
  }

private:
  /// Posts every section of \p Order, in lock order, to the lists a
  /// later true contender would be found in, so every list ascends in
  /// position; then lays out each family's lists by thread slot.
  void postLock(const std::vector<uint32_t> &Order) {
    Threads.clear();
    for (uint32_t GlobalId : Order) {
      ThreadId T = Index.byGlobalId(GlobalId).Ref.Thread;
      if (SlotOfThread[T] == InvalidId) {
        SlotOfThread[T] = 0;
        Threads.push_back(T);
      }
    }
    std::sort(Threads.begin(), Threads.end());
    for (uint32_t Slot = 0; Slot != Threads.size(); ++Slot)
      SlotOfThread[Threads[Slot]] = Slot;

    // Fresh maps: clearing one costs its capacity, which an earlier,
    // larger lock may have grown far past this lock's needs.
    AddrIds = FlatMap<AddrId, uint32_t>();
    Lists = FlatMap<uint64_t, uint32_t>();
    Families = FlatMap<uint64_t, uint32_t>();
    Links.clear();
    ListOfLink.clear();
    LinkStart.clear();
    Heads.clear();
    Tails.clear();
    ListSlot.clear();
    ListFamily.clear();
    FamilyKeys.clear();
    for (uint32_t Pos = 0; Pos != Order.size(); ++Pos) {
      const CriticalSection &Cs = Index.byGlobalId(Order[Pos]);
      uint32_t Slot = SlotOfThread[Cs.Ref.Thread];
      LinkStart.push_back(static_cast<uint32_t>(Links.size()));
      for (AddrId A : Index.reads(Cs))
        post(numberOf(AddrIds, A), Access::Reads, Slot, Pos);
      for (AddrId A : Index.writes(Cs))
        post(numberOf(AddrIds, A), Access::Writes, Slot, Pos);
      for (LockId C : Index.condWaits(Cs))
        post(C, Access::WaitsOn, Slot, Pos);
      for (LockId C : Index.condSignals(Cs))
        post(C, Access::SignalsOn, Slot, Pos);
    }
    LinkStart.push_back(static_cast<uint32_t>(Links.size()));
    layOutFamilies();
  }

  /// Appends position \p Pos to the list of (\p Id, \p Tag, \p Slot).
  void post(uint32_t Id, Access Tag, uint32_t Slot, uint32_t Pos) {
    uint32_t At = static_cast<uint32_t>(Links.size());
    Links.push_back(Link{Pos, InvalidId});
    uint32_t List = numberOf(Lists, listKey(Id, Tag, Slot));
    if (List == Heads.size()) {
      Heads.push_back(At);
      ListSlot.push_back(Slot);
      uint64_t FamilyKey = familyKey(Id, Tag);
      uint32_t Family = numberOf(Families, FamilyKey);
      if (Family == FamilyKeys.size())
        FamilyKeys.push_back(FamilyKey);
      ListFamily.push_back(Family);
      Tails.push_back(At);
    } else {
      Links[Tails[List]].Next = At;
      Tails[List] = At;
    }
    ListOfLink.push_back(List);
  }

  /// Fills FamilyRun with each family's lists, ascending by thread slot
  /// (a counting pass by slot, then a stable one by family), and
  /// Partners with the families each family's sections can truly
  /// contend with.
  void layOutFamilies() {
    size_t NumLists = Heads.size(), NumFamilies = FamilyKeys.size();
    Fill.assign(Threads.size() + 1, 0);
    for (uint32_t Slot : ListSlot)
      ++Fill[Slot + 1];
    for (size_t Slot = 0; Slot != Threads.size(); ++Slot)
      Fill[Slot + 1] += Fill[Slot];
    BySlot.resize(NumLists);
    for (uint32_t List = 0; List != NumLists; ++List)
      BySlot[Fill[ListSlot[List]]++] = List;

    FamilyStart.assign(NumFamilies + 1, 0);
    for (uint32_t Family : ListFamily)
      ++FamilyStart[Family + 1];
    for (size_t Family = 0; Family != NumFamilies; ++Family)
      FamilyStart[Family + 1] += FamilyStart[Family];
    Fill.assign(FamilyStart.begin(), FamilyStart.end() - 1);
    FamilyRun.resize(NumLists);
    for (uint32_t List : BySlot)
      FamilyRun[Fill[ListFamily[List]]++] = List;

    Partners.clear();
    for (uint64_t Key : FamilyKeys) {
      auto partner = [&](Access Tag) {
        const uint32_t *Family = Families.find((Key & ~uint64_t(3)) |
                                               uint64_t(Tag));
        return Family ? *Family : InvalidId;
      };
      switch (static_cast<Access>(Key & 3)) {
      case Access::Reads:
        Partners.push_back({partner(Access::Writes), InvalidId});
        break;
      case Access::Writes:
        Partners.push_back({partner(Access::Reads), partner(Access::Writes)});
        break;
      case Access::WaitsOn:
        Partners.push_back({partner(Access::SignalsOn), InvalidId});
        break;
      case Access::SignalsOn:
        Partners.push_back({partner(Access::WaitsOn), InvalidId});
        break;
      }
    }
  }

  /// Sequential search for the section at position \p I: in every other
  /// thread, the first later section that truly contends with it gets
  /// a causal edge.
  void matchSection(const std::vector<uint32_t> &Order, uint32_t I) {
    // Every position before I has moved its lists past itself, so
    // moving I's lists past I leaves every head on its list's first
    // posting after I.  I's lists also name the families to query.
    Walks.clear();
    for (uint32_t At = LinkStart[I]; At != LinkStart[I + 1]; ++At) {
      uint32_t List = ListOfLink[At];
      assert(Heads[List] == At && "list head lags behind lock order");
      Heads[List] = Links[At].Next;
      for (uint32_t Family : Partners[ListFamily[List]])
        if (Family != InvalidId)
          Walks.push_back(Walk{FamilyStart[Family], FamilyStart[Family + 1]});
    }
    if (Walks.empty())
      return;

    // Visit the queried lists thread by thread, in ascending slot (that
    // is, thread) order, and search each other thread's heads.
    const CriticalSection &A = Index.byGlobalId(Order[I]);
    uint32_t OwnSlot = SlotOfThread[A.Ref.Thread];
    Matches.clear();
    for (;;) {
      uint32_t Slot = InvalidId;
      for (const Walk &W : Walks)
        if (W.At != W.End)
          Slot = std::min(Slot, ListSlot[FamilyRun[W.At]]);
      if (Slot == InvalidId)
        break;
      Heap.clear();
      for (Walk &W : Walks) {
        if (W.At == W.End || ListSlot[FamilyRun[W.At]] != Slot)
          continue;
        uint32_t Head = Heads[FamilyRun[W.At++]];
        if (Head != InvalidId && Slot != OwnSlot)
          Heap.push_back(Cursor{Links[Head].Pos, Head});
      }
      if (Heap.empty())
        continue;
      uint32_t Pos = contenderIn(Order, I, Slot);
      if (Pos != InvalidId)
        Matches.push_back(Pos);
    }
    std::sort(Matches.begin(), Matches.end());
    for (uint32_t Pos : Matches)
      Edges.push_back(TopologyEdge{A.GlobalId, Order[Pos]});
  }

  /// firstContender for the thread in \p Slot, answered from an earlier
  /// search of an equal-keyed section when its answer still lies ahead.
  /// That search ran with the memo on, so it left a verdict for every
  /// key pair it visited; this one would visit a suffix of the same
  /// candidates, all memo hits, and stop at the same section.
  uint32_t contenderIn(const std::vector<uint32_t> &Order, uint32_t I,
                      uint32_t Slot) {
    if (MemoOn)
      if (const uint32_t *Known = Searches.find(searchKey(I, Slot)))
        if (*Known == InvalidId || *Known > I)
          return *Known;
    uint32_t Pos = firstContender(Order, I);
    if (MemoOn)
      Searches[searchKey(I, Slot)] = Pos;
    return Pos;
  }

  /// Returns the first posting in Heap's (non-empty) lists that truly
  /// contends with the section at position \p I (InvalidId when none
  /// does).  The first candidate is the least head; only when it does
  /// not truly contend are the lists merged on in ascending position.
  uint32_t firstContender(const std::vector<uint32_t> &Order, uint32_t I) {
    assert(!Heap.empty() && "no list to search");
    uint32_t Pos = std::min_element(Heap.begin(), Heap.end(),
                                    [](const Cursor &L, const Cursor &R) {
                                      return L.Pos < R.Pos;
                                    })
                       ->Pos;
    if (classify(Order, I, Pos) == UlcpKind::TrueContention)
      return Pos;
    std::make_heap(Heap.begin(), Heap.end());
    for (;;) {
      // A section can sit in several of the merged lists; step every
      // cursor past it so it is classified once.
      while (!Heap.empty() && Heap.front().Pos == Pos) {
        std::pop_heap(Heap.begin(), Heap.end());
        Cursor &C = Heap.back();
        uint32_t Next = Links[C.At].Next;
        if (Next != InvalidId) {
          C = Cursor{Links[Next].Pos, Next};
          std::push_heap(Heap.begin(), Heap.end());
        } else {
          Heap.pop_back();
        }
      }
      if (Heap.empty())
        return InvalidId;
      Pos = Heap.front().Pos;
      if (classify(Order, I, Pos) == UlcpKind::TrueContention)
        return Pos;
    }
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
    Searches.clear();
    MemoOn = true;
  }

  uint64_t memoKey(uint32_t I, uint32_t J) const {
    return SectionKeyTable::pairKey(KeyOfPos[I], KeyOfPos[J]);
  }

  uint64_t searchKey(uint32_t I, uint32_t Slot) const {
    return uint64_t(KeyOfPos[I]) << 32 | Slot;
  }

  const Trace &Tr;
  const CsIndex &Index;
  std::vector<TopologyEdge> Edges;
  uint64_t NumClassified = 0;

  // Lock-local verdict memo, live while MemoOn: section keys by
  // lock-order position, verdicts by key pair, and the answer of the
  // last search by (key, thread slot).
  bool MemoOn = false;
  std::vector<uint32_t> KeyOfPos;
  FlatMap<uint64_t, UlcpKind> Verdicts;
  FlatMap<uint64_t, uint32_t> Searches;

  // Per-lock conflict index, rebuilt by postLock.  A list holds the
  // postings of one (id, access, thread) in lock order; a family is the
  // lists of one (id, access) across threads.  Threads are numbered by
  // lock-local slot, ascending with their ids.
  std::vector<uint32_t> SlotOfThread;
  std::vector<ThreadId> Threads;
  FlatMap<AddrId, uint32_t> AddrIds;
  FlatMap<uint64_t, uint32_t> Lists;
  FlatMap<uint64_t, uint32_t> Families;
  // The postings, in lock order; position P's are
  // Links[LinkStart[P], LinkStart[P+1]), and ListOfLink names the list
  // each is in.
  std::vector<Link> Links;
  std::vector<uint32_t> ListOfLink;
  std::vector<uint32_t> LinkStart;
  // Per list: its first posting past the section being matched
  // (InvalidId once exhausted), its last posting, slot and family.
  std::vector<uint32_t> Heads;
  std::vector<uint32_t> Tails;
  std::vector<uint32_t> ListSlot;
  std::vector<uint32_t> ListFamily;
  // Per family: its key, its lists FamilyRun[FamilyStart[F],
  // FamilyStart[F+1]) ascending by slot, and the (up to two) families
  // it can truly contend with.
  std::vector<uint64_t> FamilyKeys;
  std::vector<uint32_t> FamilyStart;
  std::vector<uint32_t> FamilyRun;
  std::vector<std::array<uint32_t, 2>> Partners;
  // Scratch of layOutFamilies.
  std::vector<uint32_t> Fill, BySlot;
  // Per-section working buffers.
  std::vector<Walk> Walks;
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
