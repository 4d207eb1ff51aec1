//===- sim/Replayer.h - Deterministic trace replay ----------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay engine: a discrete-event simulator that re-executes a
/// trace on virtual multicore time under one of the four enforcement
/// schemes (ORIG-S / ELSC-S / SYNC-S / MEM-S, Section 6.1), honoring
/// transformed-trace locksets (RULE 3/4), the dynamic locking strategy
/// (Figure 9) and RULE 2 partial-order constraints.
///
/// Scheme semantics:
///  - ORIG-S: locks go to the earliest arrival; computation durations
///    receive seed-dependent scheduling jitter.  Nondeterministic
///    across seeds — the large error bars of Figure 13.
///  - ELSC-S: every lock is granted in the trace's recorded order
///    (Trace::LockSchedule); no jitter.  Deterministic, and adds no
///    waiting beyond the recorded interleaving.
///  - SYNC-S: locks are granted in an input-derived order (sorted by
///    each section's no-contention arrival time), regardless of the
///    recorded schedule — Kendo's input-driven determinism, which
///    inserts waits whenever that order disagrees with arrivals.
///  - MEM-S: SYNC-S-style determinism plus a global total order over
///    all shared accesses, charging a serialization latency per access
///    — PinPlay/CoreDet-style.  The order comes from an ELSC pre-replay
///    that times every access: the next access granted is the one with
///    the least (pre-replay time, thread id) among each thread's next
///    access.  A thread's times never decrease, so this per-thread
///    merge is the global (time, thread, index) order, with no global
///    sort or stored order.
///
/// For transformed traces (non-empty Trace::Locksets), the per-lock
/// recorded order no longer applies (auxiliary locks are fresh); RULE 2
/// constraints carry the required ordering and grants otherwise go to
/// the earliest arrival with deterministic tie-breaking.
///
/// Per-section engine state is flat: each section's held locks are a
/// slice of one append-only pool, and RULE 2 predecessors are one
/// offsets-plus-ids table built from Trace::Constraints.  The engine
/// requires the trace's CS index (Trace::buildCsIndex), which also
/// gives it the section count without a rescan.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SIM_REPLAYER_H
#define PERFPLAY_SIM_REPLAYER_H

#include "sim/ReplayOptions.h"
#include "sim/ReplayResult.h"
#include "trace/Trace.h"

#include <vector>

namespace perfplay {

/// Replays \p Tr under \p Opts and returns the timing outcome.
ReplayResult replayTrace(const Trace &Tr,
                         const ReplayOptions &Opts = ReplayOptions());

/// Per-critical-section arrival times when each thread runs alone
/// (no contention, immediate grants).  Index = global CS id.  This is
/// the input-derived ordering key SYNC-S enforces.
std::vector<TimeNs> computeSoloArrivals(const Trace &Tr,
                                        const CostModel &Costs);

/// SYNC-S's enforced grant order: for each lock, its critical sections
/// (global ids) by ascending (solo arrival, id).
std::vector<std::vector<uint32_t>> computeSyncOrder(const Trace &Tr,
                                                    const CostModel &Costs);

/// "Recording" step for generated traces: replays \p Tr once under
/// ORIG-S with \p Seed and installs the observed per-lock grant order
/// as Tr.LockSchedule — the schedule ELSC-S will enforce on replays.
/// Returns the recording run's result.
ReplayResult recordGrantSchedule(Trace &Tr, uint64_t Seed,
                                 const CostModel &Costs = CostModel());

} // namespace perfplay

#endif // PERFPLAY_SIM_REPLAYER_H
