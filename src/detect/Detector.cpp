//===- detect/Detector.cpp - Whole-trace ULCP detection --------------------===//
//
// The hot path of the pipeline: every same-lock cross-thread pair is
// classified directly from the index's packed section table (Algorithm
// 1, then the reversed replay for statically conflicting pairs), with
// no verdict cache — the paper's Table 2 grouping is a reporting step
// (debug/Fusion.h), not a detection memo.  CountsOnly keeps the O(n^2)
// Pairs vector from being materialized.  The enumeration itself lives in
// detect/PairEnumerator.h, shared with the windowed detector.
//
//===----------------------------------------------------------------------===//

#include "detect/Detector.h"

#include "detect/PairEnumerator.h"

#include <cassert>

using namespace perfplay;

std::vector<UlcpPair> DetectResult::unnecessaryPairs() const {
  std::vector<UlcpPair> Out;
  for (const UlcpPair &P : Pairs)
    if (isUnnecessary(P.Kind))
      Out.push_back(P);
  return Out;
}

DetectResult perfplay::detectUlcps(const Trace &Tr, const CsIndex &Index,
                                   const DetectOptions &Opts) {
  assert(Index.size() == Tr.numCriticalSections() &&
         "index built from another trace");
  (void)Tr;
  std::vector<uint32_t> ThreadOf(Index.size());
  for (const CriticalSection &Cs : Index.all())
    ThreadOf[Cs.GlobalId] = Cs.Ref.Thread;

  DetectResult Result;
  enumeratePairs(
      Opts, Index.lockOrders(), ThreadOf,
      [&](uint32_t G1, uint32_t G2) {
        const CriticalSection &C1 = Index.byGlobalId(G1);
        const CriticalSection &C2 = Index.byGlobalId(G2);
        return Opts.UseReversedReplay ? classifyPair(Index, C1, C2)
                                      : classifyPairStatic(Index, C1, C2);
      },
      Result);
  Result.TryFailPerLock = Index.tryFailPerLock();
  Result.TryFailEdges = Index.tryFailEdges();
  return Result;
}
