//===- transform/Transform.h - ULCP trace transformation --------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3's four-rule trace transformation: from a recorded trace
/// with ULCPs to a semantically-preserving ULCP-free trace.
///
///  - RULE 1 builds the causal topology (transform/Topology.h).
///  - RULE 2 pins the partial order of causal-edge nodes per lock, so
///    repeated replays of the transformed trace are stable.
///  - RULE 3 re-synchronizes: each node with outdegree receives a fresh
///    auxiliary lock (@L...); each node with indegree adds its source
///    nodes' auxiliary locks to its lockset.  Null-locks and standalone
///    nodes lose their lock/unlock operations entirely (encoded as an
///    empty lockset).
///  - RULE 4 (mutual exclusion iff locksets intersect) is enforced by
///    the replayer on the lockset tables this pass emits.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRANSFORM_TRANSFORM_H
#define PERFPLAY_TRANSFORM_TRANSFORM_H

#include "detect/CriticalSection.h"
#include "trace/Trace.h"
#include "transform/Topology.h"

#include <vector>

namespace perfplay {

/// Outcome of the four-rule transformation.
struct TransformResult {
  /// The ULCP-free trace: same threads/events with per-acquire lockset
  /// annotations, auxiliary locks appended to the lock table, and RULE
  /// 2 constraints installed.
  Trace Transformed;
  /// The RULE 1 causal topology (nodes = global CS ids).
  TopologyGraph Topology;
  /// Auxiliary lock given to each node with outdegree (InvalidId for
  /// the rest).  Index = global CS id.
  std::vector<LockId> AuxLockOfCs;
  /// Number of standalone nodes whose lock operations were removed.
  uint64_t NumStandalone = 0;
  /// Number of auxiliary locks created.
  uint64_t NumAuxLocks = 0;
  /// classifyPair calls RULE 1 made (buildTopology): every
  /// classification on a lock before its verdict memo turns on, at the
  /// lock's first verdict other than TrueContention, and the memo
  /// misses after that.
  uint64_t NumClassified = 0;

  TransformResult() : Topology(0) {}
};

/// Runs RULE 1-4 over \p Tr (whose critical sections are \p Index).
TransformResult transformTrace(const Trace &Tr, const CsIndex &Index);

} // namespace perfplay

#endif // PERFPLAY_TRANSFORM_TRANSFORM_H
