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
/// The check is two passes over pair-local slots, one per address in
/// the union of the two sections' slot lists, merged from the lists
/// their SectionTable packs (detect/CriticalSection.h) and seeded from
/// the slots' initial values.  Each section's memory program names its
/// own slots, so a pass maps them to pair slots through one small array
/// per section.  The forward A;B pass records every read; the reversed
/// B;A pass compares each read as it happens and stops at the first
/// mismatch; the two final slot arrays are compared last.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_REVERSEDREPLAY_H
#define PERFPLAY_DETECT_REVERSEDREPLAY_H

#include "detect/CriticalSection.h"

namespace perfplay {

/// Returns true if executing \p A then \p B produces the same outcome as
/// \p B then \p A from the trace's initial memory image — i.e. the
/// conflict is benign: the final memory agrees, and each section reads
/// the same values whether it runs first or second.  \p A and \p B are
/// sections of \p Table.  Safe to call concurrently: each thread keeps
/// its own scratch slots.
bool isBenignPair(const SectionTable &Table, const CriticalSection &A,
                  const CriticalSection &B);

} // namespace perfplay

#endif // PERFPLAY_DETECT_REVERSEDREPLAY_H
