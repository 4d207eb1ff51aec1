//===- transform/RaceCheck.cpp - Theorem 1 race reporting ------------------===//

#include "transform/RaceCheck.h"

#include "detect/Classify.h"
#include "support/SetOps.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <tuple>

using namespace perfplay;

namespace {

/// One shared access with its protection context.
struct AccessRecord {
  ThreadId Thread;
  AddrId Addr;
  bool IsWrite;
  /// Enclosing critical sections, outermost first (empty if unlocked).
  std::vector<uint32_t> Enclosing;
};

/// Row-major N x N bit matrix, 64 columns per word: test(I, J) means
/// section I happens before section J.
class ReachMatrix {
public:
  explicit ReachMatrix(size_t N)
      : Words((N + 63) / 64), Bits(N * Words, 0) {}

  bool test(size_t I, size_t J) const {
    return (Bits[I * Words + J / 64] >> (J % 64)) & 1;
  }
  void set(size_t I, size_t J) {
    Bits[I * Words + J / 64] |= uint64_t(1) << (J % 64);
  }
  /// Row I |= row K: everything K reaches, I reaches too.
  void orRow(size_t I, size_t K) {
    uint64_t *Dst = &Bits[I * Words];
    const uint64_t *Src = &Bits[K * Words];
    for (size_t W = 0; W != Words; ++W)
      Dst[W] |= Src[W];
  }

private:
  size_t Words;
  std::vector<uint64_t> Bits;
};

} // namespace

/// Reachability over program order + causal edges + constraints,
/// computed as a transitive closure in Floyd-Warshall order, one
/// 64-column word per step: O(N^3 / 64) time, N^2 bits.
static ReachMatrix computeHappensBefore(const Trace &Tr,
                                        const TopologyGraph &Topo) {
  size_t N = Tr.numCriticalSections();
  ReachMatrix Reach(N);

  // Program order within each thread.
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    uint32_t Count = Tr.numCriticalSections(T);
    for (uint32_t I = 0; I + 1 < Count; ++I)
      Reach.set(Tr.globalCsId(CsRef{T, I}), Tr.globalCsId(CsRef{T, I + 1}));
  }
  for (const TopologyEdge &E : Topo.edges())
    Reach.set(E.From, E.To);
  for (const OrderConstraint &C : Tr.Constraints)
    Reach.set(C.Before, C.After);

  for (size_t K = 0; K != N; ++K)
    for (size_t I = 0; I != N; ++I)
      if (I != K && Reach.test(I, K))
        Reach.orRow(I, K);
  return Reach;
}

/// Sorted lock ids of a section's lockset in the transformed trace,
/// read from its opening event: the transformation keeps every event
/// at its original position, so \p Index (built over the original
/// trace) locates it directly.
static std::vector<LockId> locksetLocks(const Trace &Tr, const CsIndex &Index,
                                        uint32_t Cs) {
  std::vector<LockId> Out;
  const CriticalSection &Section = Index.byGlobalId(Cs);
  const Event &E = Tr.Threads[Section.Ref.Thread].Events[Section.AcquireIdx];
  assert(isSectionOpen(E) && "section does not open at its acquire index");
  if (E.lockset() == InvalidId) {
    Out.push_back(E.lock());
  } else {
    for (const LocksetEntry &Entry : Tr.Locksets[E.lockset()].Entries)
      Out.push_back(Entry.Lock);
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<RaceReport> perfplay::checkRaces(const Trace &Transformed,
                                             const CsIndex &Index,
                                             const TopologyGraph &Topology) {
  const Trace &Tr = Transformed;

  // Collect every shared access with its enclosing sections.
  std::vector<AccessRecord> Accesses;
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    std::vector<uint32_t> Open;
    uint32_t NextIndex = 0;
    for (const Event &E : Tr.Threads[T].Events) {
      switch (E.Kind) {
      case EventKind::LockAcquire:
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
      case EventKind::TryAcquire:
        // A failed trylock opens no section.
        if (isSectionOpen(E))
          Open.push_back(Tr.globalCsId(CsRef{T, NextIndex++}));
        break;
      case EventKind::LockRelease:
        assert(!Open.empty() && "unbalanced release");
        Open.pop_back();
        break;
      case EventKind::Read:
      case EventKind::Write:
        Accesses.push_back(
            AccessRecord{T, E.addr(), E.Kind == EventKind::Write, Open});
        break;
      default:
        break;
      }
    }
  }

  const ReachMatrix Reach = computeHappensBefore(Tr, Topology);

  // Sorted lockset per section: the all-pairs protectedPair probe
  // below intersects them repeatedly.
  std::vector<std::vector<LockId>> Locksets(Tr.numCriticalSections());
  for (uint32_t Cs = 0; Cs != Locksets.size(); ++Cs)
    Locksets[Cs] = locksetLocks(Tr, Index, Cs);

  auto ordered = [&](const AccessRecord &A, const AccessRecord &B) {
    for (uint32_t CsA : A.Enclosing)
      for (uint32_t CsB : B.Enclosing)
        if (Reach.test(CsA, CsB) || Reach.test(CsB, CsA))
          return true;
    return false;
  };

  auto protectedPair = [&](const AccessRecord &A, const AccessRecord &B) {
    for (uint32_t CsA : A.Enclosing)
      for (uint32_t CsB : B.Enclosing)
        if (sortedIntersects(Locksets[CsA], Locksets[CsB]))
          return true;
    return false;
  };

  // Theorem 1 tolerates *benign* interleavings (redundant writes,
  // commutative updates): a conflicting but order-insensitive pair of
  // sections was parallelized on purpose and is not a race.
  // The index's section table was packed from the original trace,
  // whose memory events the transformation keeps unchanged.
  auto benignSections = [&](uint32_t CsA, uint32_t CsB) {
    if (CsA == InvalidId || CsB == InvalidId)
      return false;
    return classifyPair(Index, Index.byGlobalId(CsA),
                        Index.byGlobalId(CsB)) != UlcpKind::TrueContention;
  };

  std::vector<RaceReport> Races;
  std::set<std::tuple<uint32_t, uint32_t, AddrId>> Seen;
  for (size_t I = 0; I != Accesses.size(); ++I) {
    const AccessRecord &A = Accesses[I];
    for (size_t J = I + 1; J != Accesses.size(); ++J) {
      const AccessRecord &B = Accesses[J];
      if (A.Thread == B.Thread || A.Addr != B.Addr)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      if (protectedPair(A, B) || ordered(A, B))
        continue;
      uint32_t CsA = A.Enclosing.empty() ? InvalidId : A.Enclosing.back();
      uint32_t CsB = B.Enclosing.empty() ? InvalidId : B.Enclosing.back();
      uint32_t Lo = std::min(CsA, CsB), Hi = std::max(CsA, CsB);
      if (!Seen.insert({Lo, Hi, A.Addr}).second)
        continue;
      if (benignSections(CsA, CsB))
        continue;
      Races.push_back(RaceReport{A.Addr, A.Thread, B.Thread, CsA, CsB});
    }
  }
  return Races;
}
