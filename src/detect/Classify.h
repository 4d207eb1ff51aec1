//===- detect/Classify.h - Algorithm 1: ULCP identification -----*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Algorithm 1: classify a pair of critical sections
/// protected by the same lock by intersecting their shadow-memory
/// read/write sets.  Pairs that conflict statically are refined by the
/// reversed replay into Benign or TrueContention.  Both read only the
/// sections' runs of their SectionTable (detect/CriticalSection.h):
/// no trace walk and no hash probe per pair.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_CLASSIFY_H
#define PERFPLAY_DETECT_CLASSIFY_H

#include "detect/CriticalSection.h"
#include "detect/ReversedReplay.h"
#include "detect/Ulcp.h"

namespace perfplay {

/// Algorithm 1, lines 1-8: classification by read/write set
/// intersection only.  Returns TrueContention for statically
/// conflicting pairs (which a caller may refine with isBenignPair).
/// Every read/write-set intersection is the sorted merge of
/// support/SetOps.h, which gallops when one side is much smaller.
/// \p C1 and \p C2 are sections of \p Table.
UlcpKind classifyPairStatic(const SectionTable &Table,
                            const CriticalSection &C1,
                            const CriticalSection &C2);

/// Full classification: Algorithm 1 plus the reversed-replay
/// refinement of conflicting pairs into Benign / TrueContention.
UlcpKind classifyPair(const SectionTable &Table, const CriticalSection &C1,
                      const CriticalSection &C2);

} // namespace perfplay

#endif // PERFPLAY_DETECT_CLASSIFY_H
