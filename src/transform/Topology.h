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
/// each lock buildTopology first posts every section, in one forward
/// pass over the lock order, to linked lists keyed by (thread,
/// reads|writes|waits|signals, id): each posting is a {position, next}
/// link appended to its list, and each position records where its own
/// links start.  A family is one (access, id)'s lists across threads,
/// laid out ascending by thread; each family knows the (at most two)
/// families its sections can truly contend with: writers for a read,
/// readers and writers for a write, signalers for a wait, waiters for a
/// signal.
///
/// The match walks the lock order forward.  Before matching the
/// section A at position I, it moves the head of every list A posts in
/// past A (A is that list's head: every earlier position moved its own
/// lists past itself), so every list's head is its first posting after
/// I.  Walking the families A's lists name, thread by thread, each other
/// thread U's candidates are the heads of its lists: the least of them
/// is U's first candidate, found without a sort or a binary search.
/// Only when that candidate is not a true contention are U's lists
/// merged on in ascending position through a heap, stopping at U's first
/// true contention.  Every section outside the lists would classify as
/// a ULCP, so the edges equal those of the plain scan, in the same
/// order.  The walk stays forward, with threads in ascending id order,
/// because the verdict memo below turns on at a lock's first verdict
/// that is not TrueContention: another order would move that point and
/// so the classification count.
///
/// Cost per lock of P postings: O(P) to post (two hash probes each)
/// and to lay out the families; per section A querying W families, one
/// head step per posting of A and O(W) array steps per thread holding
/// a list in those families, so one probe per (query, thread) and no
/// hash probe; a heap step per candidate only after a verdict other
/// than TrueContention; plus one
/// classifyPair (at most a reversed replay over the index's packed
/// slots and programs) per candidate classified.  Memory is O(P).
/// Classifying every later section instead is quadratic in the lock's
/// sections, since a thread that never matches is scanned to the end
/// of the order.  The index lives for one lock.
///
/// The verdict memo is lock-local and switched on by the verdicts
/// themselves.  While a lock's candidates all truly contend, each
/// classification ends one thread's search with an edge: the work is
/// already bounded by the output, and a memo would add a signature per
/// section and a lookup per call.  Only a verdict other than
/// TrueContention lets a search run on, and only then do the same
/// pairs of section bodies come back many times.  So a lock starts
/// without a memo; at its first such verdict its sections (and only
/// its sections) are interned by lock-order position
/// (detect/SectionKey.h), and the rest of the lock is memoized per
/// section-key pair.  A lock whose conflicts are all benign then costs
/// one reversed replay per distinct key pair.  A key includes its lock,
/// so the memo is emptied whenever the next lock turns it on.
///
/// With the memo on, the answer of each thread's search is kept too,
/// per (section key, thread).  Equal keys post the same lists, and the
/// earlier search left a verdict for every key pair it visited, so a
/// later section of that key would walk a suffix of the same candidates
/// through memo hits to the same answer while that answer still lies
/// ahead of it.  It takes the answer instead, which turns the walk
/// through a benign run, once per section, into one lookup; no
/// classification is skipped that the walk would have counted.
///
/// The graph is stored in compressed sparse row (CSR) form: the edges
/// in insertion order, and each node's successors and predecessors as
/// one contiguous run of a flat array, located by an offset array of
/// NumNodes + 1 entries.  A stable counting pass fills both runs once
/// the edge list is complete, so every run keeps edge-insertion order;
/// RULE 3 builds each lockset in predecessor order and relies on it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRANSFORM_TOPOLOGY_H
#define PERFPLAY_TRANSFORM_TOPOLOGY_H

#include "detect/CriticalSection.h"
#include "support/Span.h"
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

/// One node's adjacency run in a TopologyGraph: node ids in
/// edge-insertion order, valid while the graph lives.
using NodeList = Span<uint32_t>;

/// The causal-order topology over a trace's critical sections, in CSR
/// form.  Immutable once built.
class TopologyGraph {
public:
  /// A graph of \p NumNodes nodes and \p EdgeList, kept in the given
  /// order; every node's successors and predecessors follow it too.
  explicit TopologyGraph(size_t NumNodes,
                         std::vector<TopologyEdge> EdgeList = {});

  size_t numNodes() const { return OutOffsets.size() - 1; }
  size_t numEdges() const { return Edges.size(); }
  const std::vector<TopologyEdge> &edges() const { return Edges; }

  /// Successors of \p Node (targets of its causal edges).
  NodeList successors(uint32_t Node) const {
    return NodeList(Successors.data() + OutOffsets[Node],
                    Successors.data() + OutOffsets[Node + 1]);
  }
  /// Predecessors of \p Node (sources of causal edges into it).
  NodeList predecessors(uint32_t Node) const {
    return NodeList(Predecessors.data() + InOffsets[Node],
                    Predecessors.data() + InOffsets[Node + 1]);
  }

  unsigned outDegree(uint32_t Node) const {
    return static_cast<unsigned>(OutOffsets[Node + 1] - OutOffsets[Node]);
  }
  unsigned inDegree(uint32_t Node) const {
    return static_cast<unsigned>(InOffsets[Node + 1] - InOffsets[Node]);
  }

  /// A standalone node has no causal edges at all; RULE 3 removes its
  /// lock/unlock operations entirely.
  bool isStandalone(uint32_t Node) const {
    return outDegree(Node) == 0 && inDegree(Node) == 0;
  }

private:
  std::vector<TopologyEdge> Edges;
  // Node N's successors are Successors[OutOffsets[N], OutOffsets[N+1]),
  // its predecessors Predecessors[InOffsets[N], InOffsets[N+1]).
  std::vector<size_t> OutOffsets;
  std::vector<size_t> InOffsets;
  std::vector<uint32_t> Successors;
  std::vector<uint32_t> Predecessors;
};

/// RULE 1: builds the ULCP-free causal topology of \p Tr.
///
/// For every critical section A (in per-lock recorded order), and for
/// every other thread U, the first of U's same-lock critical sections
/// that follow A in the recorded order and classify as a true
/// contention pair with A receives a causal edge A -> B.  ULCPs passed
/// over on the way carry no edge.  Each section's edges are added in
/// recorded order.  When \p NumClassified is given it receives the
/// number of classifyPair calls made: every classification on a lock
/// before its memo turns on, and the memo misses after.
TopologyGraph buildTopology(const Trace &Tr, const CsIndex &Index,
                            uint64_t *NumClassified = nullptr);

} // namespace perfplay

#endif // PERFPLAY_TRANSFORM_TOPOLOGY_H
