//===- support/Stats.h - Running sample statistics --------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming sample statistics used to summarize repeated replays:
/// bench_fig13_fidelity prints, per enforcement scheme, the mean over
/// ten replays of the same trace and their range (max - min) as
/// Figure 13's spread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_STATS_H
#define PERFPLAY_SUPPORT_STATS_H

#include <cstdint>

namespace perfplay {

/// Accumulates mean / min / max over a stream of samples.
class RunningStats {
public:
  /// Folds one sample into the accumulator.
  void add(double Sample);

  /// Number of samples seen so far.
  uint64_t count() const { return Count; }

  /// Arithmetic mean; 0 when empty.
  double mean() const { return Count ? Mean : 0.0; }

  /// Smallest sample; 0 when empty.
  double min() const { return Count ? Min : 0.0; }

  /// Largest sample; 0 when empty.
  double max() const { return Count ? Max : 0.0; }

  /// Max - min, the spread drawn as the error bar in Figure 13.
  double range() const { return Count ? Max - Min : 0.0; }

private:
  uint64_t Count = 0;
  double Mean = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_STATS_H
