//===- detect/Detector.h - Whole-trace ULCP detection -----------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-trace ULCP detection: enumerate pairs of critical sections
/// protected by the same lock across threads, classify each (Algorithm
/// 1 + reversed replay) from the CsIndex's flat section table, and
/// summarize per-category counts (the rows of Table 1).
///
/// Cost: one pass over the index's lock orders.  A pair costs the
/// condvar and read/write-set merges of Algorithm 1 over two sections'
/// sorted runs; a statically conflicting pair adds the reversed replay,
/// a merge of the two slot lists plus two runs of each section's
/// memory program.  Without CountsOnly the pair list is reserved at its
/// exact size by a counting pass first.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_DETECTOR_H
#define PERFPLAY_DETECT_DETECTOR_H

#include "detect/Classify.h"
#include "detect/CriticalSection.h"
#include "detect/Ulcp.h"
#include "trace/Trace.h"

#include <vector>

namespace perfplay {

/// Pair-enumeration strategy.
enum class PairModeKind {
  /// Every cross-thread pair of same-lock critical sections, in the
  /// per-lock order.  This is the paper's counting mode: pairs are the
  /// basic representation and complex combinations decompose into
  /// pairs, so counts can exceed the number of dynamic acquisitions.
  AllCrossThread,
  /// Only pairs adjacent in the per-lock grant order whose sections are
  /// on different threads — the contentions that actually serialized
  /// the recorded execution.
  AdjacentCrossThread,
};

/// Detection options.
struct DetectOptions {
  PairModeKind PairMode = PairModeKind::AllCrossThread;
  /// Refine conflicting pairs via reversed replay.  When false, every
  /// statically conflicting pair counts as TrueContention.
  bool UseReversedReplay = true;
  /// Pairs whose sections are farther apart than this in the per-lock
  /// order are skipped in AllCrossThread mode (0 = unlimited).  Bounds
  /// the quadratic blow-up on lock-intensive traces.
  unsigned MaxPairDistance = 0;
  /// Accumulate only DetectResult::Counts; Pairs stays empty, so
  /// AllCrossThread detection over lock-heavy traces runs in O(1) pair
  /// memory.
  bool CountsOnly = false;
};

/// Side statistics of one detection run (for benchmarks and tuning):
/// deterministic, but not verdicts.
struct DetectStats {
  /// Distinct canonical section keys interned by detection.  Detection
  /// interns none, so this is always 0; the field stays for the
  /// PipelineResult surface.
  uint64_t NumSectionKeys = 0;
  /// Pair classifications computed: every enumerated pair, so always
  /// Counts.total().
  uint64_t NumClassified = 0;
};

/// Detection output: every classified pair plus totals.
struct DetectResult {
  /// Classified pairs in per-lock enumeration order.  Empty when the
  /// run used CountsOnly.
  std::vector<UlcpPair> Pairs;
  UlcpCounts Counts;
  DetectStats Stats;
  /// Failed trylock attempts per lock (sized to the trace's lock
  /// table): contention edges witnessed on the lock without any
  /// critical section opening, so they participate in per-lock
  /// contention accounting but never in pair classification.
  std::vector<uint64_t> TryFailPerLock;
  /// Total failed trylock attempts across all locks.
  uint64_t TryFailEdges = 0;

  /// Only the unnecessary pairs (everything but TrueContention).
  std::vector<UlcpPair> unnecessaryPairs() const;
};

/// Runs detection over \p Index (built from \p Tr).  Every verdict
/// reads the index's section table only (detect/CriticalSection.h);
/// \p Tr is not walked.
DetectResult detectUlcps(const Trace &Tr, const CsIndex &Index,
                         const DetectOptions &Opts = DetectOptions());

} // namespace perfplay

#endif // PERFPLAY_DETECT_DETECTOR_H
