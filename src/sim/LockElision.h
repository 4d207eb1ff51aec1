//===- sim/LockElision.h - Speculative lock elision baseline ----*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baselines the paper argues against (Sections 2.2 and 7.1):
/// runtime speculation executes critical sections without taking the
/// lock and aborts on data conflicts.  It removes ULCP serialization
/// *at runtime* — but pays aborts and rollbacks, suffers false aborts
/// from hardware limitations, and gives the programmer no debugging
/// information.
///
/// One simulator, \ref speculate, models that trade-off on our traces:
///  - sections run speculatively (no lock-wait),
///  - two temporally-overlapping same-lock sections abort the
///    later-started one when their read/write sets truly conflict
///    (the hardware cannot recognize benign conflicts: redundant
///    writes abort too),
///  - a section whose read+write footprint exceeds the model's
///    capacity aborts deterministically and goes straight to the lock,
///  - each attempt additionally suffers a seeded random abort with the
///    model's probability,
///  - an abort rolls the section back (its body re-executes plus an
///    abort penalty); after MaxRetries aborts the section falls back
///    to the real lock, serializing behind the lock's other fallbacks.
///
/// Speculative lock elision (Rajwar/Goodman-style) and HTM with a lock
/// fallback are two presets of it: \ref simulateLockElision (unbounded
/// capacity, flat false-abort rate) and \ref simulateHtm (bounded
/// capacity, interrupt-abort rate).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SIM_LOCKELISION_H
#define PERFPLAY_SIM_LOCKELISION_H

#include "detect/CriticalSection.h"
#include "sim/CostModel.h"
#include "trace/Trace.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace perfplay {

/// Speculation model parameters shared by SLE and HTM.  The defaults
/// are the SLE preset at LockElisionOptions' defaults.
struct SpecModel {
  /// Distinct addresses (read set + write set) one speculative attempt
  /// can track; a larger footprint takes a capacity abort, which is
  /// not worth retrying.  Unbounded for SLE.
  size_t Capacity = std::numeric_limits<size_t>::max();
  /// Cycles lost per abort beyond re-executing the section body.
  TimeNs AbortPenalty = 150;
  /// Conflict/random aborts after which the section takes the lock.
  unsigned MaxRetries = 2;
  /// Probability of a retryable random abort (false abort, interrupt)
  /// per attempt that neither overflows nor conflicts.
  double RandomAbortRate = 0.02;
  uint64_t Seed = 1;
  CostModel Costs;
};

/// Speculation outcome.
struct SpecResult {
  TimeNs TotalTime = 0;
  std::vector<TimeNs> ThreadFinish;
  /// Aborts from true data conflicts between overlapping sections.
  uint64_t ConflictAborts = 0;
  /// Deterministic aborts from footprints exceeding Capacity.
  uint64_t CapacityAborts = 0;
  /// Retryable aborts drawn at RandomAbortRate.
  uint64_t RandomAborts = 0;
  /// Sections that gave up speculation and took the lock.
  uint64_t Fallbacks = 0;
  /// Virtual time burned re-executing aborted sections.
  TimeNs WastedNs = 0;
};

/// Simulates speculation under \p Model over \p Tr.  \p Index must be
/// built from \p Tr.  Deterministic for a fixed seed.
SpecResult speculate(const Trace &Tr, const CsIndex &Index,
                     const SpecModel &Model);

/// Lock-elision simulation parameters.
struct LockElisionOptions {
  /// Cycles lost per abort beyond re-executing the section body.
  TimeNs AbortPenalty = 150;
  /// Probability of a capacity/interrupt-style false abort per
  /// speculative attempt (the paper cites these as a practical
  /// limitation of hardware LE).
  double FalseAbortRate = 0.02;
  /// Aborts after which the section gives up and takes the real lock.
  unsigned MaxRetries = 2;
  uint64_t Seed = 1;
  CostModel Costs;
};

/// Lock-elision simulation outcome.
struct LockElisionResult {
  TimeNs TotalTime = 0;
  std::vector<TimeNs> ThreadFinish;
  /// Conflict aborts (real data conflicts detected during speculation).
  uint64_t ConflictAborts = 0;
  /// False aborts (hardware limitations).
  uint64_t FalseAborts = 0;
  /// Sections that exhausted their retries and took the lock.
  uint64_t Fallbacks = 0;
  /// Virtual time burned re-executing aborted sections.
  TimeNs WastedNs = 0;
};

/// Simulates lock elision over \p Tr: \ref speculate with unbounded
/// capacity and FalseAbortRate as the random-abort rate.
LockElisionResult simulateLockElision(
    const Trace &Tr, const CsIndex &Index,
    const LockElisionOptions &Opts = LockElisionOptions());

/// HTM-style speculation parameters.  Unlike the SLE model's flat
/// false-abort rate, hardware transactional memory aborts
/// deterministically when a section's read+write footprint overflows
/// the transactional buffers, and a capacity abort is not worth
/// retrying — the section goes straight to the lock fallback.
struct HtmOptions {
  /// Distinct addresses (read set + write set) the hardware can track
  /// per transaction; larger footprints take a capacity abort.
  unsigned Capacity = 64;
  /// Cycles lost per abort beyond re-executing the section body.
  TimeNs AbortPenalty = 120;
  /// Conflict aborts after which the section takes the real lock.
  unsigned MaxRetries = 3;
  /// Probability a transaction is killed by an interrupt/context
  /// switch per attempt (retryable, unlike capacity).
  double InterruptAbortRate = 0.0;
  uint64_t Seed = 1;
  CostModel Costs;
};

/// HTM simulation outcome.
struct HtmResult {
  TimeNs TotalTime = 0;
  std::vector<TimeNs> ThreadFinish;
  /// Aborts from true data conflicts between overlapping transactions.
  uint64_t ConflictAborts = 0;
  /// Deterministic aborts from footprints exceeding Capacity.
  uint64_t CapacityAborts = 0;
  /// Retryable aborts from simulated interrupts.
  uint64_t InterruptAborts = 0;
  /// Sections that gave up speculation and took the lock.
  uint64_t Fallbacks = 0;
  /// Virtual time burned re-executing aborted transactions.
  TimeNs WastedNs = 0;
};

/// Simulates HTM-style speculation (restricted transactional memory
/// with a lock fallback) over \p Tr: \ref speculate with Capacity and
/// InterruptAbortRate as the random-abort rate.
HtmResult simulateHtm(const Trace &Tr, const CsIndex &Index,
                      const HtmOptions &Opts = HtmOptions());

} // namespace perfplay

#endif // PERFPLAY_SIM_LOCKELISION_H
