//===- detect/ReversedReplay.cpp - Benign-vs-TLCP discrimination ----------===//
//
// isBenignPair runs the pair twice, A;B then B;A, over dense pair-local
// slots held in per-thread scratch, so a pair allocates nothing once
// the buffers have grown to the widest pair the thread has seen.
//
//===----------------------------------------------------------------------===//

#include "detect/ReversedReplay.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <vector>

using namespace perfplay;

namespace {

void applyWrite(uint64_t &Cell, uint64_t Operand, WriteOpKind Op) {
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

/// Reused buffers of one thread's isBenignPair calls.
struct ReplayScratch {
  /// Sorted union of one section's Reads and Writes, then of the pair's.
  std::vector<AddrId> AAddrs, BAddrs, Slots;
  /// Slot values under the A;B and the B;A order.
  std::vector<uint64_t> Forward, Reversed;
  /// Values the A;B pass read: A's reads, then B's.
  std::vector<uint64_t> Reads;
};

thread_local ReplayScratch Scratch;

/// Runs \p Cs's memory events over \p Values, indexed like \p Slots.
/// Each read's value goes to \p OnRead; the run stops and returns false
/// as soon as \p OnRead does.
template <typename OnReadFn>
bool replay(const Trace &Tr, const CriticalSection &Cs,
            const std::vector<AddrId> &Slots, uint64_t *Values,
            OnReadFn OnRead) {
  const std::vector<Event> &Events = Tr.Threads[Cs.Ref.Thread].Events;
  assert(Cs.ReleaseIdx > Cs.AcquireIdx && "section not closed");
  for (size_t I = Cs.AcquireIdx + 1; I != Cs.ReleaseIdx; ++I) {
    const Event &E = Events[I];
    if (E.Kind != EventKind::Read && E.Kind != EventKind::Write)
      continue;
    auto It = std::lower_bound(Slots.begin(), Slots.end(), E.Addr);
    assert(It != Slots.end() && *It == E.Addr &&
           "access outside the section's read/write sets");
    uint64_t &Cell = Values[It - Slots.begin()];
    if (E.Kind == EventKind::Write)
      applyWrite(Cell, E.Value, E.Op);
    else if (!OnRead(Cell))
      return false;
  }
  return true;
}

} // namespace

MemoryImage MemoryImage::initialOf(const Trace &Tr) {
  MemoryImage Image;
  FlatMap<AddrId, uint8_t> Decided;
  // Scan threads in order; the first dynamic access per address decides
  // its seed.  Only a read seed matters: if the first access is a write,
  // the value before it is unobservable inside critical sections.
  for (const auto &T : Tr.Threads)
    for (const Event &E : T.Events) {
      if (E.Kind == EventKind::Read) {
        if (Decided.insert(E.Addr, 1))
          Image.Cells[E.Addr] = E.Value;
      } else if (E.Kind == EventKind::Write) {
        Decided.insert(E.Addr, 1);
      }
    }
  return Image;
}

uint64_t MemoryImage::load(AddrId Addr) const {
  const uint64_t *V = Cells.find(Addr);
  return V ? *V : 0;
}

void MemoryImage::apply(AddrId Addr, uint64_t Operand, WriteOpKind Op) {
  applyWrite(Cells[Addr], Operand, Op);
}

bool perfplay::isBenignPair(const Trace &Tr, const MemoryImage &Initial,
                            const CriticalSection &A,
                            const CriticalSection &B) {
  ReplayScratch &S = Scratch;

  // Addresses outside the pair's read/write sets evolve identically in
  // both orders, so the replay only needs one slot per pair address.
  // Both orders write the same address set, so comparing plain value
  // arrays is exact.
  S.AAddrs.clear();
  std::set_union(A.Reads.begin(), A.Reads.end(), A.Writes.begin(),
                 A.Writes.end(), std::back_inserter(S.AAddrs));
  S.BAddrs.clear();
  std::set_union(B.Reads.begin(), B.Reads.end(), B.Writes.begin(),
                 B.Writes.end(), std::back_inserter(S.BAddrs));
  S.Slots.clear();
  std::set_union(S.AAddrs.begin(), S.AAddrs.end(), S.BAddrs.begin(),
                 S.BAddrs.end(), std::back_inserter(S.Slots));
  S.Forward.resize(S.Slots.size());
  for (size_t I = 0; I != S.Slots.size(); ++I)
    S.Forward[I] = Initial.load(S.Slots[I]);
  S.Reversed = S.Forward;

  // A;B: record what each section reads.
  S.Reads.clear();
  auto Record = [&S](uint64_t V) {
    S.Reads.push_back(V);
    return true;
  };
  replay(Tr, A, S.Slots, S.Forward.data(), Record);
  const size_t NumAReads = S.Reads.size();
  replay(Tr, B, S.Slots, S.Forward.data(), Record);

  // B;A: each section must read what it read in the other order.
  size_t Next = NumAReads;
  auto Match = [&S, &Next](uint64_t V) { return S.Reads[Next++] == V; };
  if (!replay(Tr, B, S.Slots, S.Reversed.data(), Match))
    return false;
  Next = 0;
  if (!replay(Tr, A, S.Slots, S.Reversed.data(), Match))
    return false;
  return S.Forward == S.Reversed;
}
