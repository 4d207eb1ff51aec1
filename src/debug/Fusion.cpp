//===- debug/Fusion.cpp - Algorithm 2: ULCP fusion --------------------------===//

#include "debug/Fusion.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

using namespace perfplay;

bool perfplay::regionsOverlap(const CodeRegion &A, const CodeRegion &B) {
  return A.File == B.File && overlaps(A.Lines, B.Lines);
}

CodeRegion perfplay::conflateRegions(const CodeRegion &A,
                                     const CodeRegion &B) {
  assert(regionsOverlap(A, B) && "conflating disjoint regions");
  CodeRegion Out;
  Out.File = A.File;
  Out.Lines = unite(A.Lines, B.Lines);
  return Out;
}

CodeRegion perfplay::regionOfSection(const Trace &Tr,
                                     const CriticalSection &Cs) {
  CodeRegion Region;
  if (Cs.Site == InvalidId) {
    // Sections without a site fuse only with themselves; synthesize a
    // per-lock pseudo-file so unrelated sections stay apart.
    Region.File = "<unknown:" + std::string(Tr.lockName(Cs.Lock)) + ">";
    Region.Lines = LineInterval(1, 1);
    return Region;
  }
  // CodeRegion materializes the pooled name: reports are part of the
  // frozen PipelineResult surface and must outlive the trace.
  const CodeSite &Site = Tr.Sites[Cs.Site];
  Region.File = std::string(Tr.siteFile(Cs.Site));
  Region.Lines = LineInterval(Site.BeginLine, Site.EndLine);
  return Region;
}

bool perfplay::fuseUlcpGroups(FusedUlcp &A, const FusedUlcp &B) {
  // Algorithm 2, lines 1-4: matching orientation.
  if (regionsOverlap(A.CR1, B.CR1) && regionsOverlap(A.CR2, B.CR2)) {
    A.CR1 = conflateRegions(A.CR1, B.CR1);
    A.CR2 = conflateRegions(A.CR2, B.CR2);
  } else if (regionsOverlap(A.CR1, B.CR2) &&
             regionsOverlap(A.CR2, B.CR1)) {
    // Lines 5-8: swapped orientation (also covers nested locks).
    A.CR1 = conflateRegions(A.CR1, B.CR2);
    A.CR2 = conflateRegions(A.CR2, B.CR1);
  } else {
    return false; // Lines 9-10: not mergeable.
  }
  A.DeltaNs += B.DeltaNs;
  A.PairCount += B.PairCount;
  return true;
}

uint32_t UlcpSeeds::siteKey(uint32_t GlobalId) const {
  const CriticalSection &Cs = Index.byGlobalId(GlobalId);
  if (Cs.Site != InvalidId)
    return Cs.Site;
  return static_cast<uint32_t>(Tr.Sites.size()) + Cs.Lock;
}

void UlcpSeeds::add(const UlcpPair &P, int64_t DeltaNs) {
  uint64_t Key = (static_cast<uint64_t>(siteKey(P.First)) << 32) |
                 siteKey(P.Second);
  uint32_t &Slot = SeedOf[Key];
  if (Slot == 0) {
    Seeds.push_back(Seed{P.First, P.Second, 0, 0});
    Slot = static_cast<uint32_t>(Seeds.size());
  }
  Seed &S = Seeds[Slot - 1];
  S.DeltaNs += DeltaNs;
  ++S.PairCount;
}

std::vector<FusedUlcp> UlcpSeeds::fuse() const {
  std::vector<FusedUlcp> Groups;
  for (const Seed &S : Seeds) {
    FusedUlcp Fresh;
    Fresh.CR1 = regionOfSection(Tr, Index.byGlobalId(S.First));
    Fresh.CR2 = regionOfSection(Tr, Index.byGlobalId(S.Second));
    Fresh.DeltaNs = S.DeltaNs;
    Fresh.PairCount = S.PairCount;

    bool Absorbed = false;
    for (FusedUlcp &G : Groups)
      if (fuseUlcpGroups(G, Fresh)) {
        Absorbed = true;
        break;
      }
    if (!Absorbed)
      Groups.push_back(std::move(Fresh));
  }

  // Conflation can widen regions and enable further merges; iterate to
  // a fixpoint ("the final state of the ULCP group is that any two
  // ULCPs can not be fused further").
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Groups.size() && !Changed; ++I)
      for (size_t J = I + 1; J < Groups.size(); ++J)
        if (fuseUlcpGroups(Groups[I], Groups[J])) {
          Groups.erase(Groups.begin() + static_cast<ptrdiff_t>(J));
          Changed = true;
          break;
        }
  }
  return Groups;
}

void perfplay::rankUlcpGroups(std::vector<FusedUlcp> &Groups) {
  int64_t Total = 0;
  for (const FusedUlcp &G : Groups)
    Total += G.DeltaNs;
  for (FusedUlcp &G : Groups)
    G.P = Total > 0 ? static_cast<double>(G.DeltaNs) /
                          static_cast<double>(Total)
                    : 0.0;
  std::stable_sort(Groups.begin(), Groups.end(),
                   [](const FusedUlcp &A, const FusedUlcp &B) {
                     if (A.P != B.P)
                       return A.P > B.P;
                     if (A.PairCount != B.PairCount)
                       return A.PairCount > B.PairCount;
                     if (A.CR1.File != B.CR1.File)
                       return A.CR1.File < B.CR1.File;
                     return A.CR1.Lines.Begin < B.CR1.Lines.Begin;
                   });
}
