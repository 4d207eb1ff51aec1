//===- detect/Classify.cpp - Algorithm 1: ULCP identification --------------===//

#include "detect/Classify.h"

#include "support/SetOps.h"

using namespace perfplay;

namespace {

/// True when one section waited on a condvar the other signaled: the
/// pair is causally ordered by the condition variable, so the lock
/// contention between them is load-bearing — never an ULCP.
bool condOrdered(const CriticalSection &C1, const CriticalSection &C2) {
  return sortedIntersects(C1.CondWaits, C2.CondSignals) ||
         sortedIntersects(C2.CondWaits, C1.CondSignals);
}

} // namespace

UlcpKind perfplay::classifyPairStatic(const CriticalSection &C1,
                                      const CriticalSection &C2) {
  // A wait/signal edge between the sections means their ordering is
  // semantically required; report true contention without looking at
  // memory (and classifyPair skips the reversed replay, which would
  // wrongly call a value-commuting but causally ordered pair benign).
  if (condOrdered(C1, C2))
    return UlcpKind::TrueContention;

  // Two reader-side (Shared-mode) sections on the same rwlock never
  // exclude each other — the pair is ULCP-free by construction,
  // regardless of what the sections read.
  if (C1.Mode == AcquireMode::Shared && C2.Mode == AcquireMode::Shared)
    return UlcpKind::ReadRead;

  // Line 1: a pair is a null-lock when either section touches no shared
  // memory at all.
  if ((C1.readsEmpty() && C1.writesEmpty()) ||
      (C2.readsEmpty() && C2.writesEmpty()))
    return UlcpKind::NullLock;

  // Line 3: read-read when neither section writes.
  if (C1.writesEmpty() && C2.writesEmpty())
    return UlcpKind::ReadRead;

  // Line 5: disjoint-write when no read-write, write-read or
  // write-write intersection exists.
  if (!sortedIntersects(C1.Reads, C2.Writes) &&
      !sortedIntersects(C1.Writes, C2.Reads) &&
      !sortedIntersects(C1.Writes, C2.Writes))
    return UlcpKind::DisjointWrite;

  // Line 8: statically conflicting; the reversed replay decides whether
  // the conflict is benign.
  return UlcpKind::TrueContention;
}

UlcpKind perfplay::classifyPair(const Trace &Tr, const MemoryImage &Initial,
                                const CriticalSection &C1,
                                const CriticalSection &C2) {
  UlcpKind Static = classifyPairStatic(C1, C2);
  if (Static != UlcpKind::TrueContention)
    return Static;
  // A condvar wait/signal edge is a semantic ordering: the reversed
  // replay could find the swapped execution value-identical and call
  // the pair benign, but reordering it would still break the program.
  if (condOrdered(C1, C2))
    return UlcpKind::TrueContention;
  if (isBenignPair(Tr, Initial, C1, C2))
    return UlcpKind::Benign;
  return UlcpKind::TrueContention;
}
