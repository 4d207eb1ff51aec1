//===- sim/ReplayOptions.h - Replay configuration ----------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replay configuration: the four schedule-enforcement schemes of
/// Section 6.1 plus the dynamic locking strategy switch and the seed
/// that drives ORIG-S nondeterminism.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SIM_REPLAYOPTIONS_H
#define PERFPLAY_SIM_REPLAYOPTIONS_H

#include "sim/CostModel.h"

#include <cstdint>
#include <string>

namespace perfplay {

/// The replay schedule-enforcement schemes compared in Figure 13.
enum class ScheduleKind : uint8_t {
  /// No enforcement: locks go to the earliest arrival, scheduling noise
  /// perturbs computation.  Nondeterministic across seeds.
  OrigS,
  /// Enforced locking serialization constraint (the paper's
  /// contribution): every lock is granted in exactly the recorded
  /// order, reproducing the recorded interleaving with no added waits.
  ElscS,
  /// Kendo-style synchronization-based determinism: locks are granted
  /// in an input-derived deterministic order regardless of the recorded
  /// schedule, inserting waits whenever that order disagrees with
  /// arrival order.
  SyncS,
  /// PinPlay/CoreDet-style memory-based determinism: SYNC-S lock
  /// enforcement plus a global total order over all shared accesses.
  MemS,
};

/// Returns the paper's name for \p Kind ("ORIG-S", "ELSC-S", ...).
const char *scheduleKindName(ScheduleKind Kind);

/// Parses a scheme name — the CLI short forms ("orig", "elsc", "sync",
/// "mem") or the paper names ("ORIG-S", ...).  Returns true and sets
/// \p Kind on success.
bool parseScheduleKind(const std::string &Name, ScheduleKind &Kind);

/// Replay configuration.
struct ReplayOptions {
  ScheduleKind Schedule = ScheduleKind::ElscS;
  /// Seed for ORIG-S scheduling noise and tie-breaking.  Enforced
  /// schemes ignore it (their replays are bit-identical by design).
  uint64_t Seed = 1;
  /// Enable the dynamic locking strategy (Figure 9): locks contributed
  /// by already-finished source sections are skipped at grant time.
  bool UseDynamicLocking = true;
  /// Relative amplitude of ORIG-S computation jitter (0.05 = +/-5%).
  double OrigJitter = 0.05;
  CostModel Costs;
  /// Memory budget for an AnalysisSession's per-{transformed, scheme,
  /// seed} ReplayResult cache: the maximum number of cached results
  /// before least-recently-used entries are evicted (0 = unbounded).
  /// Sessions clamp the bound to >= 2 so one original + one
  /// transformed replay — what report() and run() revisit — always
  /// survive.  References returned by replay()/replayTransformed() are
  /// valid until their entry is evicted or run() moves it into its
  /// result.
  size_t ReplayCacheCapacity = 32;
};

} // namespace perfplay

#endif // PERFPLAY_SIM_REPLAYOPTIONS_H
