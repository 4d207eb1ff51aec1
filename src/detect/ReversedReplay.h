//===- detect/ReversedReplay.h - Benign-vs-TLCP discrimination --*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reversed-replay check of Section 3.1: a conflicting pair of
/// critical sections is *benign* (redundant writes, disjoint bit
/// manipulation, commutative updates) if replaying the two sections in
/// both orders produces the same result.  "Result" is the final shared
/// memory over the touched addresses plus the values every read
/// observes, evaluated on an abstract memory machine seeded from the
/// recorded trace.
///
/// The check is two passes over pair-local slots: one per address in
/// the union of the pair's read and write sets, seeded from the
/// whole-trace initial image.  The forward A;B pass records every read;
/// the reversed B;A pass compares each read as it happens and stops at
/// the first mismatch; the two final slot arrays are compared last.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_REVERSEDREPLAY_H
#define PERFPLAY_DETECT_REVERSEDREPLAY_H

#include "detect/CriticalSection.h"
#include "support/FlatMap.h"
#include "trace/Trace.h"

namespace perfplay {

/// Abstract shared-memory image: address -> value.  Addresses absent
/// from the map read as zero.  Backed by an open-addressing flat hash
/// (support/FlatMap.h); the reversed replay probes it once per address
/// of a replayed pair to seed its slots.
class MemoryImage {
public:
  /// Builds the initial image of \p Tr: every address whose first
  /// dynamic access in some thread is a read is seeded with that read's
  /// recorded value.  (A write-before-read address needs no seed.)
  static MemoryImage initialOf(const Trace &Tr);

  uint64_t load(AddrId Addr) const;

  /// Applies \p Op with \p Operand at \p Addr.
  void apply(AddrId Addr, uint64_t Operand, WriteOpKind Op);

  /// Content equality: same address set with the same values.
  bool operator==(const MemoryImage &RHS) const {
    return Cells == RHS.Cells;
  }

private:
  FlatMap<AddrId, uint64_t> Cells;
};

/// Returns true if executing \p A then \p B produces the same outcome as
/// \p B then \p A from the trace's initial memory image — i.e. the
/// conflict is benign: the final memory agrees, and each section reads
/// the same values whether it runs first or second.  \p Initial is the
/// image from MemoryImage::initialOf (hoisted by callers classifying
/// many pairs).  Every memory event of either section must address
/// that section's own Reads or Writes, as CsIndex builds them.
/// Safe to call concurrently: each thread keeps its own scratch slots.
bool isBenignPair(const Trace &Tr, const MemoryImage &Initial,
                  const CriticalSection &A, const CriticalSection &B);

} // namespace perfplay

#endif // PERFPLAY_DETECT_REVERSEDREPLAY_H
