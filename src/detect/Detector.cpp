//===- detect/Detector.cpp - Whole-trace ULCP detection --------------------===//
//
// The hot path of the pipeline.  Two accelerations over the
// straightforward nested loop, both preserving the pair order and
// verdicts bit-for-bit:
//
//  * Dedup: sections are interned into canonical keys (SectionKey.h)
//    and each distinct key pair is classified once — the paper's
//    Table 2 observation that dynamic pairs massively duplicate a few
//    static patterns, turned into a verdict cache.
//  * Streaming: with a Sink (or CountsOnly) the O(n^2) Pairs vector is
//    never materialized.
//
// The enumeration itself lives in detect/PairEnumerator.h, shared with
// the windowed detector.
//
//===----------------------------------------------------------------------===//

#include "detect/Detector.h"

#include "detect/PairEnumerator.h"
#include "detect/SectionKey.h"

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
  // Static-only runs never replay, so skip the O(trace events) initial
  // image scan entirely.
  const MemoryImage Initial = Opts.UseReversedReplay
                                  ? MemoryImage::initialOf(Tr)
                                  : MemoryImage();
  SectionKeyTable Keys;
  if (Opts.DedupPairs)
    Keys = internSectionKeys(Tr, Index);
  std::vector<uint32_t> ThreadOf(Index.size());
  for (const CriticalSection &Cs : Index.all())
    ThreadOf[Cs.GlobalId] = Cs.Ref.Thread;

  DetectResult Result;
  enumeratePairs(
      Opts, Index.lockOrders(), ThreadOf, Keys.KeyOf,
      [&](uint32_t G1, uint32_t G2) {
        const CriticalSection &C1 = Index.byGlobalId(G1);
        const CriticalSection &C2 = Index.byGlobalId(G2);
        return Opts.UseReversedReplay ? classifyPair(Tr, Initial, C1, C2)
                                      : classifyPairStatic(C1, C2);
      },
      Result);
  Result.Stats.NumSectionKeys = Keys.NumKeys;
  Result.TryFailPerLock = Index.tryFailPerLock();
  Result.TryFailEdges = Index.tryFailEdges();
  return Result;
}
