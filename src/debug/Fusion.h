//===- debug/Fusion.h - Algorithm 2: ULCP fusion ----------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2 of Section 4.1: merge ULCPs generated by the same code
/// regions into unique per-code-site groups, accumulating their
/// Equation-1 improvements, then rank groups by their relative
/// optimizable value P (Equation 2).  The top group is PERFPLAY's
/// recommendation to the programmer.
///
/// Cost model: aggregate, then fuse.  A section's code region depends
/// only on its site key (its code site, or a per-lock pseudo-site when
/// it has none), so every raw pair with the same (site key, site key)
/// pair has the same two regions.  One O(pairs) hash pass (UlcpSeeds)
/// sums DeltaNs and PairCount per such seed and builds no strings;
/// Algorithm 2 (first-fit, then the fixpoint) then runs over the seeds
/// in first-appearance order, building two CodeRegions per seed.  An
/// all-pairs report of a million ULCPs fuses a few dozen seeds.
///
/// Why the seeds give the same groups as fusing pair by pair: a group
/// that absorbed a pair covers both its regions, and regions only
/// widen.  If first-fit puts a repeat of that site pair into another
/// group, that group widens to cover the same two regions, so the two
/// overlap and the fixpoint merges them.  Per-pair fusion therefore
/// never splits one site pair across final groups, which is what
/// fusing it whole as one seed assumes.  FusionTest's oracle
/// (MatchesPerPairFusionOnEveryApp) checks the full equality — groups,
/// regions, sums and rank order — on every app model.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DEBUG_FUSION_H
#define PERFPLAY_DEBUG_FUSION_H

#include "detect/CriticalSection.h"
#include "detect/Ulcp.h"
#include "support/FlatMap.h"
#include "support/Interval.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfplay {

/// A source code region: a file plus a line range.
struct CodeRegion {
  std::string File;
  LineInterval Lines;

  bool operator==(const CodeRegion &RHS) const {
    return File == RHS.File && Lines == RHS.Lines;
  }
};

/// The paper's sqcap operator: two regions share code iff they are in
/// the same file and their line ranges overlap.
bool regionsOverlap(const CodeRegion &A, const CodeRegion &B);

/// The paper's sqcup operator: the conflated region covering both.
/// Requires regionsOverlap(A, B).
CodeRegion conflateRegions(const CodeRegion &A, const CodeRegion &B);

/// Code region of critical section \p Cs (from its code site).
CodeRegion regionOfSection(const Trace &Tr, const CriticalSection &Cs);

/// One fused group: a unique pair of code regions with the accumulated
/// improvement of every ULCP it absorbed.
struct FusedUlcp {
  CodeRegion CR1;
  CodeRegion CR2;
  /// Accumulated Equation-1 improvement (virtual ns).
  int64_t DeltaNs = 0;
  /// Number of raw ULCPs fused into this group.
  uint64_t PairCount = 0;
  /// Equation 2 relative optimizable value; filled by rankUlcpGroups.
  double P = 0.0;
};

/// Attempts Algorithm 2 on two groups.  On success merges \p B into
/// \p A (accumulating DeltaNs and PairCount) and returns true.
bool fuseUlcpGroups(FusedUlcp &A, const FusedUlcp &B);

/// Algorithm 2's input aggregated by code site: one seed per distinct
/// (siteKey(First), siteKey(Second)) of the added pairs, carrying the
/// summed improvement and pair count.  The site key is the section's
/// code site, or NumSites + its lock for a section without one (the
/// per-lock pseudo-site of regionOfSection).
class UlcpSeeds {
public:
  UlcpSeeds(const Trace &Tr, const CsIndex &Index) : Tr(Tr), Index(Index) {}

  /// Adds pair \p P with its Equation-1 improvement \p DeltaNs.
  void add(const UlcpPair &P, int64_t DeltaNs);

  /// Algorithm 2 over the seeds in first-appearance order: first-fit,
  /// then fusion to a fixpoint.
  std::vector<FusedUlcp> fuse() const;

private:
  struct Seed {
    /// A representative pair: the first added with this seed's key.
    uint32_t First;
    uint32_t Second;
    int64_t DeltaNs;
    uint64_t PairCount;
  };

  uint32_t siteKey(uint32_t GlobalId) const;

  const Trace &Tr;
  const CsIndex &Index;
  /// Packed site-key pair -> index into Seeds, plus one.
  FlatMap<uint64_t, uint32_t> SeedOf;
  std::vector<Seed> Seeds;
};

/// Equation 2: fills each group's P = dT / sum(dT) and sorts groups by
/// P descending (ties by PairCount, then region).  With a zero total
/// every P is 0 and the order is by PairCount.
void rankUlcpGroups(std::vector<FusedUlcp> &Groups);

} // namespace perfplay

#endif // PERFPLAY_DEBUG_FUSION_H
