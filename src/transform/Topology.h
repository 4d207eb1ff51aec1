//===- transform/Topology.h - Causal-order topology (RULE 1) ----*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The causal-order topology of Section 3: nodes are critical sections,
/// causal edges connect true lock contention pairs.  RULE 1 builds the
/// ULCP-free topology by sequential searching: each critical section
/// establishes a causal edge to its *first* matched TLCP in every other
/// thread; the ULCPs skipped over become non-causal (removable).
///
/// The search is output-sensitive.  classifyPair can only return
/// TrueContention for a pair linked by a condvar wait/signal or by a
/// read/write, write/read or write/write address intersection, so for
/// each lock buildTopology first posts every section, by lock-order
/// position, under (thread, reads|writes, address) and (thread,
/// waits|signals, condvar) lists.  For section A at position I and
/// another thread U it merges U's lists that A could conflict with
/// (writers of A's reads, readers and writers of A's writes, signalers
/// of A's waits, waiters of A's signals) past I in ascending position
/// and classifies only those candidates, stopping at U's first true
/// contention.  Every section outside the lists would classify as a
/// ULCP, so the edges equal those of the plain scan, in the same order.
/// Verdicts are memoized per section-key pair (detect/SectionKey.h), so
/// a lock whose conflicts are all benign costs one reversed replay per
/// distinct key pair.
///
/// Cost per lock: sorting its P postings, O(P log P); then per section
/// A and thread U, one binary search per query plus one heap step per
/// candidate visited, O((|A| + candidates) log P).  Classifying every
/// later section instead is quadratic in the lock's sections, since a
/// thread that never matches is scanned to the end of the order.  The
/// index lives for one lock.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRANSFORM_TOPOLOGY_H
#define PERFPLAY_TRANSFORM_TOPOLOGY_H

#include "detect/CriticalSection.h"
#include "trace/Trace.h"

#include <vector>

namespace perfplay {

/// A causal edge: critical section From contends truly with To and must
/// happen before it.
struct TopologyEdge {
  uint32_t From = InvalidId;
  uint32_t To = InvalidId;

  bool operator==(const TopologyEdge &RHS) const {
    return From == RHS.From && To == RHS.To;
  }
};

/// The causal-order topology over a trace's critical sections.
class TopologyGraph {
public:
  explicit TopologyGraph(size_t NumNodes) : NumNodes(NumNodes) {
    OutEdges.resize(NumNodes);
    InEdges.resize(NumNodes);
  }

  void addEdge(uint32_t From, uint32_t To);

  size_t numNodes() const { return NumNodes; }
  size_t numEdges() const { return Edges.size(); }
  const std::vector<TopologyEdge> &edges() const { return Edges; }

  /// Successors of \p Node (targets of its causal edges).
  const std::vector<uint32_t> &successors(uint32_t Node) const {
    return OutEdges[Node];
  }
  /// Predecessors of \p Node (sources of causal edges into it).
  const std::vector<uint32_t> &predecessors(uint32_t Node) const {
    return InEdges[Node];
  }

  unsigned outDegree(uint32_t Node) const {
    return static_cast<unsigned>(OutEdges[Node].size());
  }
  unsigned inDegree(uint32_t Node) const {
    return static_cast<unsigned>(InEdges[Node].size());
  }

  /// A standalone node has no causal edges at all; RULE 3 removes its
  /// lock/unlock operations entirely.
  bool isStandalone(uint32_t Node) const {
    return outDegree(Node) == 0 && inDegree(Node) == 0;
  }

private:
  size_t NumNodes;
  std::vector<TopologyEdge> Edges;
  std::vector<std::vector<uint32_t>> OutEdges;
  std::vector<std::vector<uint32_t>> InEdges;
};

/// RULE 1: builds the ULCP-free causal topology of \p Tr.
///
/// For every critical section A (in per-lock recorded order), and for
/// every other thread U, the first of U's same-lock critical sections
/// that follow A in the recorded order and classify as a true
/// contention pair with A receives a causal edge A -> B.  ULCPs passed
/// over on the way carry no edge.  Each section's edges are added in
/// recorded order.  When \p NumClassified is given it receives the
/// number of pair classifications computed (memoized verdicts not
/// counted).
TopologyGraph buildTopology(const Trace &Tr, const CsIndex &Index,
                            uint64_t *NumClassified = nullptr);

} // namespace perfplay

#endif // PERFPLAY_TRANSFORM_TOPOLOGY_H
