//===- detect/Classify.cpp - Algorithm 1: ULCP identification --------------===//

#include "detect/Classify.h"

#include "support/SetOps.h"

using namespace perfplay;

namespace {

/// True when one section waited on a condvar the other signaled: the
/// pair is causally ordered by the condition variable, so the lock
/// contention between them is load-bearing — never an ULCP.
inline bool condOrdered(const SectionTable &Table, const CriticalSection &C1,
                        const CriticalSection &C2) {
  // Most sections touch no condvar: test the run sizes before the runs.
  if ((C1.CondWaits.Size == 0 || C2.CondSignals.Size == 0) &&
      (C2.CondWaits.Size == 0 || C1.CondSignals.Size == 0))
    return false;
  return sortedIntersects(Table.condWaits(C1), Table.condSignals(C2)) ||
         sortedIntersects(Table.condWaits(C2), Table.condSignals(C1));
}

/// Algorithm 1 after the condvar test: the mode and read/write-set
/// lines.  TrueContention means statically conflicting.
inline UlcpKind classifyAccesses(const SectionTable &Table,
                                 const CriticalSection &C1,
                                 const CriticalSection &C2) {
  // Two reader-side (Shared-mode) sections on the same rwlock never
  // exclude each other — the pair is ULCP-free by construction,
  // regardless of what the sections read.
  if (C1.Mode == AcquireMode::Shared && C2.Mode == AcquireMode::Shared)
    return UlcpKind::ReadRead;

  // Line 1: a pair is a null-lock when either section touches no shared
  // memory at all.
  if (C1.Slots.Size == 0 || C2.Slots.Size == 0)
    return UlcpKind::NullLock;

  // Line 3: read-read when neither section writes.
  if (C1.Writes.Size == 0 && C2.Writes.Size == 0)
    return UlcpKind::ReadRead;

  // Line 5: disjoint-write when no read-write, write-read or
  // write-write intersection exists.  R1∩W2 ∪ W1∩W2 is Slots1∩W2 and
  // W1∩R2 ∪ W1∩W2 is W1∩Slots2, so two merges over the packed slot
  // lists decide it.
  if (!sortedIntersects(Table.slots(C1), Table.writes(C2)) &&
      !sortedIntersects(Table.writes(C1), Table.slots(C2)))
    return UlcpKind::DisjointWrite;

  // Line 8: statically conflicting; the reversed replay decides whether
  // the conflict is benign.
  return UlcpKind::TrueContention;
}

} // namespace

UlcpKind perfplay::classifyPairStatic(const SectionTable &Table,
                                      const CriticalSection &C1,
                                      const CriticalSection &C2) {
  // A wait/signal edge between the sections means their ordering is
  // semantically required; report true contention without looking at
  // memory.
  if (condOrdered(Table, C1, C2))
    return UlcpKind::TrueContention;
  return classifyAccesses(Table, C1, C2);
}

UlcpKind perfplay::classifyPair(const SectionTable &Table,
                                const CriticalSection &C1,
                                const CriticalSection &C2) {
  // A condvar wait/signal edge is a semantic ordering: the reversed
  // replay could find the swapped execution value-identical and call
  // the pair benign, but reordering it would still break the program.
  if (condOrdered(Table, C1, C2))
    return UlcpKind::TrueContention;
  UlcpKind Static = classifyAccesses(Table, C1, C2);
  if (Static != UlcpKind::TrueContention)
    return Static;
  return isBenignPair(Table, C1, C2) ? UlcpKind::Benign
                                     : UlcpKind::TrueContention;
}
