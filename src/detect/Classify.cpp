//===- detect/Classify.cpp - Algorithm 1: ULCP identification --------------===//

#include "detect/Classify.h"

#include "support/SetOps.h"

using namespace perfplay;

namespace {

/// Mean chunk occupancy at which the bitmap walk pays for its
/// per-chunk overhead.  Benchmarked on the wide-set corpus: dense
/// interleaved sets (512/chunk) run >100x faster word-parallel, while
/// strided sparse sets (8/chunk) are ~1.4x slower than the plain
/// merge, so the kernel is chosen on density.
constexpr size_t DenseOccupancy = 16;

bool isDense(const AddrSet &S) {
  return S.size() >= DenseOccupancy * S.chunkCount();
}

/// One read/write-set intersection.  \p AV/\p BV are the sorted
/// vectors, \p AS/\p BS their AddrSet mirrors (valid when
/// \p Mirrors).  Tiny sets take the merge, whose constant factor wins
/// (and sortedIntersects already early-exits on disjoint value
/// ranges); otherwise the word-parallel path runs when at least one
/// side is chunk-dense, and two genuinely sparse wide sets merge
/// fastest as vectors.  The tiny bound equals the gate below which
/// sections never derive mirrors (CriticalSection::TinySetMax).
bool setsIntersect(const std::vector<AddrId> &AV, const AddrSet &AS,
                   const std::vector<AddrId> &BV, const AddrSet &BS,
                   bool Mirrors) {
  if (!Mirrors || (AV.size() <= CriticalSection::TinySetMax &&
                   BV.size() <= CriticalSection::TinySetMax))
    return sortedIntersects(AV, BV);
  if (isDense(AS) || isDense(BS))
    return AS.intersects(BS);
  return sortedIntersects(AV, BV);
}

/// True when one section waited on a condvar the other signaled: the
/// pair is causally ordered by the condition variable, so the lock
/// contention between them is load-bearing — never an ULCP.
bool condOrdered(const CriticalSection &C1, const CriticalSection &C2) {
  auto intersects = [](const std::vector<LockId> &A,
                       const std::vector<LockId> &B) {
    size_t I = 0, J = 0;
    while (I != A.size() && J != B.size()) {
      if (A[I] < B[J])
        ++I;
      else if (B[J] < A[I])
        ++J;
      else
        return true;
    }
    return false;
  };
  return intersects(C1.CondWaits, C2.CondSignals) ||
         intersects(C2.CondWaits, C1.CondSignals);
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

  // A section without derived AddrSets (tiny or hand-built) cannot
  // take the bitset path; results are identical either way.
  const bool Mirrors = C1.setsBuilt() && C2.setsBuilt();

  // Line 5: disjoint-write when no read-write, write-read or
  // write-write intersection exists.
  if (!setsIntersect(C1.Reads, C1.ReadSet, C2.Writes, C2.WriteSet,
                     Mirrors) &&
      !setsIntersect(C1.Writes, C1.WriteSet, C2.Reads, C2.ReadSet,
                     Mirrors) &&
      !setsIntersect(C1.Writes, C1.WriteSet, C2.Writes, C2.WriteSet,
                     Mirrors))
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
