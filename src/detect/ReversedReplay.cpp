//===- detect/ReversedReplay.cpp - Benign-vs-TLCP discrimination ----------===//
//
// isBenignPair runs the pair twice, A;B then B;A, over dense pair-local
// slots held in per-thread scratch, so a pair allocates nothing once
// the buffers have grown to the widest pair the thread has seen.
//
//===----------------------------------------------------------------------===//

#include "detect/ReversedReplay.h"

#include <algorithm>
#include <vector>

using namespace perfplay;

namespace {

inline void applyWrite(uint64_t &Cell, uint64_t Operand, WriteOpKind Op) {
  switch (Op) {
  case WriteOpKind::Store:
    Cell = Operand;
    break;
  case WriteOpKind::Add:
    Cell += Operand;
    break;
  case WriteOpKind::Or:
    Cell |= Operand;
    break;
  case WriteOpKind::And:
    Cell &= Operand;
    break;
  case WriteOpKind::Xor:
    Cell ^= Operand;
    break;
  }
}

/// Reused buffers of one thread's isBenignPair calls: each section's
/// slot-to-pair-slot map, the pair-slot values under the A;B and the
/// B;A order, and the values the A;B pass read (A's reads, then B's).
struct ReplayScratch {
  std::vector<uint32_t> MapA, MapB;
  std::vector<uint64_t> Forward, Reversed, Reads;

  /// Grows the buffers to fit a pair of \p NA and \p NB slots and
  /// \p NumOps accesses.
  void fit(size_t NA, size_t NB, size_t NumOps) {
    MapA.resize(std::max(MapA.size(), NA));
    MapB.resize(std::max(MapB.size(), NB));
    Forward.resize(std::max(Forward.size(), NA + NB));
    Reversed.resize(Forward.size());
    Reads.resize(std::max(Reads.size(), NumOps));
  }
};

thread_local ReplayScratch Scratch;

/// Runs \p Program over \p Values, its slots mapped to pair slots by
/// \p Map.  Each read's value goes to \p OnRead; the run stops and
/// returns false as soon as \p OnRead does.
template <typename OnReadFn>
inline bool replay(Span<MemOp> Program, const uint32_t *Map,
                   uint64_t *Values, OnReadFn OnRead) {
  for (const MemOp &Op : Program) {
    uint64_t &Cell = Values[Map[Op.Slot]];
    if (Op.IsWrite)
      applyWrite(Cell, Op.Operand, Op.Op);
    else if (!OnRead(Cell))
      return false;
  }
  return true;
}

} // namespace

bool perfplay::isBenignPair(const SectionTable &Table,
                            const CriticalSection &A,
                            const CriticalSection &B) {
  const Span<AddrId> SlotsA = Table.slots(A), SlotsB = Table.slots(B);
  const Span<uint64_t> InitA = Table.slotValues(A),
                       InitB = Table.slotValues(B);
  const Span<MemOp> ProgA = Table.program(A), ProgB = Table.program(B);
  const size_t NA = SlotsA.size(), NB = SlotsB.size();
  ReplayScratch &S = Scratch;
  S.fit(NA, NB, ProgA.size() + ProgB.size());
  uint32_t *MapA = S.MapA.data(), *MapB = S.MapB.data();
  uint64_t *Forward = S.Forward.data(), *Reversed = S.Reversed.data();
  uint64_t *Reads = S.Reads.data();

  // Addresses outside the pair's slots evolve identically in both
  // orders, so the replay only needs one slot per pair address: the
  // merge of the two sorted slot lists.  Both orders write the same
  // address set, so comparing plain value arrays is exact.  A shared
  // address has the same initial value in both lists.
  uint32_t N = 0;
  size_t I = 0, J = 0;
  while (I != NA && J != NB) {
    if (SlotsA[I] < SlotsB[J]) {
      Forward[N] = InitA[I];
      MapA[I++] = N++;
    } else if (SlotsB[J] < SlotsA[I]) {
      Forward[N] = InitB[J];
      MapB[J++] = N++;
    } else {
      Forward[N] = InitA[I];
      MapA[I++] = N;
      MapB[J++] = N++;
    }
  }
  for (; I != NA; ++I) {
    Forward[N] = InitA[I];
    MapA[I] = N++;
  }
  for (; J != NB; ++J) {
    Forward[N] = InitB[J];
    MapB[J] = N++;
  }
  std::copy(Forward, Forward + N, Reversed);

  // A;B: record what each section reads.
  size_t NumReads = 0;
  auto Record = [Reads, &NumReads](uint64_t V) {
    Reads[NumReads++] = V;
    return true;
  };
  replay(ProgA, MapA, Forward, Record);
  const size_t NumAReads = NumReads;
  replay(ProgB, MapB, Forward, Record);

  // B;A: each section must read what it read in the other order.
  size_t Next = NumAReads;
  auto Match = [Reads, &Next](uint64_t V) { return Reads[Next++] == V; };
  if (!replay(ProgB, MapB, Reversed, Match))
    return false;
  Next = 0;
  if (!replay(ProgA, MapA, Reversed, Match))
    return false;
  return std::equal(Forward, Forward + N, Reversed);
}
