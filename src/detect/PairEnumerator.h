//===- detect/PairEnumerator.h - The detection pair loop --------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one pair enumerator of ULCP detection, shared by the whole-trace
/// detector (detectUlcps) and the windowed detector
/// (WindowedDetector::finish).  It owns the enumeration policy, so the
/// two paths produce the same DetectResult by construction:
///
///  - locks ascending, then first position ascending, then second
///    position ascending in each lock's pairing order,
///  - same-thread pairs skipped,
///  - the pair-mode cut (pairLimit),
///  - every remaining pair classified on its own (no verdict cache;
///    see detect/SectionKey.h for why),
///  - the Counts / Pairs / CountsOnly emission rule.
///
/// Callers differ only in what they classify: the whole trace the
/// dynamic sections, the windowed detector their signature
/// representatives.  The classifier is a template parameter, so the
/// per-pair loop makes no indirect call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_PAIRENUMERATOR_H
#define PERFPLAY_DETECT_PAIRENUMERATOR_H

#include "detect/Detector.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace perfplay {

/// Upper bound (exclusive) of the inner pair loop for first-section
/// position \p I of a lock with \p OrderSize sections.
inline size_t pairLimit(const DetectOptions &Opts, size_t I,
                        size_t OrderSize) {
  size_t Limit = OrderSize;
  if (Opts.PairMode == PairModeKind::AdjacentCrossThread)
    Limit = std::min(Limit, I + 2);
  else if (Opts.MaxPairDistance != 0)
    Limit = std::min(Limit, I + 1 + Opts.MaxPairDistance);
  return Limit;
}

/// Calls \p Visit(G1, G2) for every same-lock cross-thread pair of
/// global ids in enumeration order.  \p PerLock holds each lock's
/// global section ids in pairing order; \p ThreadOf maps a global id
/// to its thread.
template <typename VisitFn>
void forEachPair(const DetectOptions &Opts,
                 const std::vector<std::vector<uint32_t>> &PerLock,
                 const std::vector<uint32_t> &ThreadOf, VisitFn &&Visit) {
  for (const std::vector<uint32_t> &Order : PerLock)
    for (size_t I = 0; I + 1 < Order.size(); ++I) {
      const uint32_t G1 = Order[I];
      const uint32_t T1 = ThreadOf[G1];
      const size_t Limit = pairLimit(Opts, I, Order.size());
      for (size_t J = I + 1; J < Limit; ++J) {
        const uint32_t G2 = Order[J];
        if (ThreadOf[G2] != T1)
          Visit(G1, G2);
      }
    }
}

/// Enumerates and classifies every same-lock cross-thread pair into
/// \p Out (Pairs, Counts, Stats.NumClassified).  \p Classify(G1, G2)
/// returns the verdict of the pair of global ids G1, G2.  Unless the
/// run is CountsOnly, a counting pass first reserves Out.Pairs at its
/// exact size.
template <typename ClassifyFn>
void enumeratePairs(const DetectOptions &Opts,
                    const std::vector<std::vector<uint32_t>> &PerLock,
                    const std::vector<uint32_t> &ThreadOf,
                    ClassifyFn &&Classify, DetectResult &Out) {
  size_t Reserved = Out.Pairs.size();
  if (!Opts.CountsOnly) {
    forEachPair(Opts, PerLock, ThreadOf,
                [&Reserved](uint32_t, uint32_t) { ++Reserved; });
    Out.Pairs.reserve(Reserved);
  }
  forEachPair(Opts, PerLock, ThreadOf, [&](uint32_t G1, uint32_t G2) {
    const UlcpKind Kind = Classify(G1, G2);
    Out.Counts.add(Kind);
    if (!Opts.CountsOnly)
      Out.Pairs.push_back(UlcpPair{G1, G2, Kind});
  });
  assert(Out.Pairs.size() == Reserved &&
         "pair count differs from the enumeration");
  Out.Stats.NumClassified = Out.Counts.total();
}

} // namespace perfplay

#endif // PERFPLAY_DETECT_PAIRENUMERATOR_H
