//===- debug/Report.h - Performance debugging report ------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end product of PERFPLAY: per-code-region optimization
/// opportunities ranked by Equation 2, plus the whole-program metrics
/// of Section 6.3 — performance degradation Tpd = Tut - Tuft and
/// resource wasting Trw = sum(dT_ULCP) - Tpd.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DEBUG_REPORT_H
#define PERFPLAY_DEBUG_REPORT_H

#include "debug/Fusion.h"
#include "sim/ReplayResult.h"

#include <string>
#include <vector>

namespace perfplay {

/// Whole-program ULCP performance report.
struct PerfDebugReport {
  /// Replayed completion time of the original trace (Tut).
  TimeNs OriginalTime = 0;
  /// Replayed completion time of the ULCP-free trace (Tuft).
  TimeNs UlcpFreeTime = 0;
  /// Performance degradation Tpd = Tut - Tuft (>= 0 when the
  /// transformation helps).
  int64_t Tpd = 0;
  /// Sum of per-ULCP improvements (Equation 1) over all pairs.
  int64_t SumDelta = 0;
  /// Resource wasting Trw = SumDelta - Tpd: benefit burned off the
  /// critical path (e.g. spin cycles), per Section 6.3.
  int64_t Trw = 0;
  /// Direct spin-wait accounting from the two replays (our simulator
  /// can measure what the paper infers).
  TimeNs SpinWaitOriginal = 0;
  TimeNs SpinWaitUlcpFree = 0;
  unsigned NumThreads = 0;

  /// Fused, ranked groups (Equation 2).  Groups.front() is the
  /// paper's ULCP_1 recommendation.
  std::vector<FusedUlcp> Groups;

  /// Tpd normalized by the original time (Figure 14's "performance
  /// degradation" bar).
  double normalizedDegradation() const;
  /// Per-thread CPU wasting normalized by the original time (Figure
  /// 14's "CPU time wasting per thread" bar): (Trw / Nthread) / Tut.
  double normalizedCpuWastePerThread() const;
};

/// Builds the report from detection + the two replays.  \p Pairs may
/// be DetectResult::Pairs as is: TrueContention pairs are skipped, so
/// passing DetectResult::unnecessaryPairs() gives the same report.
PerfDebugReport buildReport(const Trace &Tr, const CsIndex &Index,
                            const std::vector<UlcpPair> &Pairs,
                            const ReplayResult &Original,
                            const ReplayResult &UlcpFree);

/// Renders the report as human-readable text (the "list of potential
/// optimization benefits" of Figure 5).
std::string renderReport(const PerfDebugReport &Report);

} // namespace perfplay

#endif // PERFPLAY_DEBUG_REPORT_H
