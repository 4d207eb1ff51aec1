//===- transform/Transform.cpp - ULCP trace transformation -----------------===//

#include "transform/Transform.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <limits>
#include <string_view>

using namespace perfplay;

TransformResult perfplay::transformTrace(const Trace &Tr,
                                         const CsIndex &Index) {
  TransformResult Result;
  Result.Transformed = Tr;
  Trace &Out = Result.Transformed;
  Result.Topology = buildTopology(Tr, Index, &Result.NumClassified);
  const TopologyGraph &Topo = Result.Topology;
  size_t NumCs = Index.size();

  // RULE 3, part 1: a fresh auxiliary lock per node with outdegree.
  // Auxiliary locks inherit the spin-ness of the original lock so the
  // resource-wasting accounting stays comparable.
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs)
    Result.NumAuxLocks += Topo.outDegree(Cs) != 0;
  Out.Locks.reserve(Out.Locks.size() + Result.NumAuxLocks);
  Result.AuxLockOfCs.assign(NumCs, InvalidId);
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    if (Topo.outDegree(Cs) == 0)
      continue;
    const CriticalSection &Section = Index.byGlobalId(Cs);
    // "@L<thread>_<index>", formatted in place.
    constexpr int Digits = std::numeric_limits<uint32_t>::digits10 + 1;
    char Name[3 + 2 * Digits] = "@L";
    char *End = std::to_chars(Name + 2, Name + 2 + Digits,
                              Section.Ref.Thread).ptr;
    *End++ = '_';
    End = std::to_chars(End, End + Digits, Section.Ref.Index).ptr;
    LockInfo Aux;
    Aux.Name = Out.intern(std::string_view(Name, End - Name));
    Aux.IsSpin = Tr.Locks[Section.Lock].IsSpin;
    Out.Locks.push_back(Aux);
    Result.AuxLockOfCs[Cs] = static_cast<LockId>(Out.Locks.size() - 1);
  }

  // RULE 3, part 2: build each node's lockset — its own auxiliary lock
  // plus the auxiliary lock of every causal source — straight into the
  // flat table: one entry per auxiliary lock and one per edge.
  // Standalone nodes (which subsumes all null-locks: a section with
  // empty read/write sets can never truly contend) get an empty
  // lockset, i.e. their lock/unlock pair is removed.
  std::vector<LocksetId> LocksetOfCs(NumCs, InvalidId);
  Out.Locksets.reserve(Out.Locksets.size() + NumCs,
                       Out.Locksets.entries().size() + Result.NumAuxLocks +
                           Topo.edges().size());
  for (uint32_t Cs = 0; Cs != NumCs; ++Cs) {
    if (Result.AuxLockOfCs[Cs] != InvalidId)
      Out.Locksets.addEntry(LocksetEntry{Result.AuxLockOfCs[Cs], InvalidId});
    for (uint32_t Pred : Topo.predecessors(Cs)) {
      assert(Result.AuxLockOfCs[Pred] != InvalidId &&
             "causal source must have an auxiliary lock");
      Out.Locksets.addEntry(LocksetEntry{Result.AuxLockOfCs[Pred], Pred});
    }
    if (Topo.isStandalone(Cs))
      ++Result.NumStandalone;
    LocksetOfCs[Cs] = Out.Locksets.closeLockset();
  }

  // Annotate every section-opening acquire (mutex, rwlock, successful
  // trylock) with its lockset.
  for (ThreadId T = 0; T != Out.Threads.size(); ++T) {
    uint32_t NextIndex = 0;
    for (Event &E : Out.Threads[T].Events)
      if (isSectionOpen(E)) {
        uint32_t Cs = Tr.globalCsId(CsRef{T, NextIndex++});
        E.setLockset(LocksetOfCs[Cs]);
      }
  }

  // RULE 2: preserve the original partial order.  Two sources feed the
  // constraint set: (a) every causal edge itself (the true-contention
  // order must survive, and the dynamic locking strategy relies on a
  // source being granted before its targets); (b) for each original
  // lock, the chain of causal-edge nodes in the recorded grant order.
  // Both are unique by construction (RULE 1 adds at most one edge per
  // section and thread, and each section sits in one lock's order), so
  // a chain pair only needs skipping when it repeats an edge.
  for (const TopologyEdge &E : Topo.edges())
    Out.Constraints.push_back(OrderConstraint{E.From, E.To});
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    uint32_t PrevCausal = InvalidId;
    for (uint32_t Cs : Index.sectionsOfLock(L)) {
      if (Topo.isStandalone(Cs))
        continue;
      if (PrevCausal != InvalidId) {
        NodeList Succ = Topo.successors(PrevCausal);
        if (std::find(Succ.begin(), Succ.end(), Cs) == Succ.end())
          Out.Constraints.push_back(OrderConstraint{PrevCausal, Cs});
      }
      PrevCausal = Cs;
    }
  }

  // Keep the recorded schedule aligned with the (grown) lock table;
  // auxiliary locks have no recorded order — RULE 2 constraints carry
  // the ordering for the transformed replay.
  if (!Out.LockSchedule.empty())
    Out.LockSchedule.resize(Out.Locks.size());

  // RULE 3 adds no section, so the CS index copied from Tr stays exact.
  return Result;
}
