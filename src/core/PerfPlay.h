//===- core/PerfPlay.h - The PERFPLAY pipeline -------------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end PERFPLAY pipeline of Figure 5:
///
///   1. record   — a trace arrives from the live recorder
///                 (runtime/Instrument.h) or a workload generator; if it
///                 lacks a grant schedule, one ORIG-S "recording" run
///                 installs it,
///   2. detect   — identify every ULCP (Algorithm 1 + reversed replay),
///   3. transform— RULE 1-4 produce the ULCP-free trace,
///   4. replay   — both traces replay under ELSC for faithful timing,
///   5. report   — Equation 1 per pair, Algorithm 2 fusion per code
///                 region, Equation 2 ranking.
///
/// runPerfPlay() runs all five stages in one shot.  It is a thin
/// wrapper over the staged API — core/AnalysisSession.h exposes each
/// stage as a lazily-computed, cached step with typed errors, and
/// core/Engine.h adds multi-trace batch analysis; prefer those for new
/// code.  See examples/quickstart.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_CORE_PERFPLAY_H
#define PERFPLAY_CORE_PERFPLAY_H

#include "core/AnalysisSession.h"

namespace perfplay {

/// Runs the full pipeline over \p Tr (taken by value; the recording
/// step may install a grant schedule into it).  Equivalent to opening
/// an AnalysisSession on \p Tr and calling run(), which moves the
/// stage results into the returned PipelineResult.
PipelineResult runPerfPlay(Trace Tr,
                           const PipelineOptions &Opts = PipelineOptions());

} // namespace perfplay

#endif // PERFPLAY_CORE_PERFPLAY_H
