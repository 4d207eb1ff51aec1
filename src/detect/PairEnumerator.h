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
///  - verdict dedup by SectionKeyTable::pairKey,
///  - the Counts / Sink / Pairs / CountsOnly emission rule.
///
/// Callers differ only in what they classify on a verdict-cache miss:
/// the whole trace classifies the dynamic sections, the windowed
/// detector their signature representatives.  The classifier is a
/// template parameter, so the per-pair loop makes no indirect call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_PAIRENUMERATOR_H
#define PERFPLAY_DETECT_PAIRENUMERATOR_H

#include "detect/Detector.h"
#include "detect/SectionKey.h"
#include "support/FlatMap.h"

#include <algorithm>
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

/// Enumerates and classifies every same-lock cross-thread pair into
/// \p Out (Pairs, Counts, Stats.NumClassified).
///
/// \p PerLock holds each lock's global section ids in pairing order;
/// \p ThreadOf and \p KeyOf map a global id to its thread and its
/// section key (\p KeyOf is read only when Opts.DedupPairs).
/// \p Classify(G1, G2) returns the verdict of the pair of global ids
/// G1, G2; with dedup it runs once per distinct key pair.
template <typename ClassifyFn>
void enumeratePairs(const DetectOptions &Opts,
                    const std::vector<std::vector<uint32_t>> &PerLock,
                    const std::vector<uint32_t> &ThreadOf,
                    const std::vector<uint32_t> &KeyOf,
                    ClassifyFn &&Classify, DetectResult &Out) {
  uint64_t NumClassified = 0;
  const bool Keep = !Opts.Sink && !Opts.CountsOnly;
  for (const std::vector<uint32_t> &Order : PerLock) {
    // A section key includes its lock (SectionKey.h), so a key pair
    // never recurs under another lock: the verdict cache lives per
    // lock, and its memory is bounded by the busiest lock's distinct
    // key pairs rather than the whole trace's.
    FlatMap<uint64_t, UlcpKind> Cache;
    for (size_t I = 0; I + 1 < Order.size(); ++I) {
      const uint32_t G1 = Order[I];
      const uint32_t T1 = ThreadOf[G1];
      const size_t Limit = pairLimit(Opts, I, Order.size());
      for (size_t J = I + 1; J < Limit; ++J) {
        const uint32_t G2 = Order[J];
        if (ThreadOf[G2] == T1)
          continue;
        UlcpKind Kind;
        if (Opts.DedupPairs) {
          const uint64_t Key =
              SectionKeyTable::pairKey(KeyOf[G1], KeyOf[G2]);
          if (const UlcpKind *Hit = Cache.find(Key)) {
            Kind = *Hit;
          } else {
            Kind = Classify(G1, G2);
            ++NumClassified;
            Cache.insert(Key, Kind);
          }
        } else {
          Kind = Classify(G1, G2);
          ++NumClassified;
        }
        const UlcpPair Pair{G1, G2, Kind};
        Out.Counts.add(Kind);
        if (Opts.Sink)
          Opts.Sink(Pair);
        if (Keep)
          Out.Pairs.push_back(Pair);
      }
    }
  }
  Out.Stats.NumClassified = NumClassified;
}

} // namespace perfplay

#endif // PERFPLAY_DETECT_PAIRENUMERATOR_H
