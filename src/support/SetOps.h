//===- support/SetOps.h - Sorted-vector set operations ----------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set operations over sorted, de-duplicated runs.  PerfPlay keeps
/// read/write sets and locksets as sorted arrays (cache-friendly, cheap
/// intersection), the representation Algorithm 1 and RULE 4 need: a
/// std::vector, or a Span over a CsIndex pool (support/Span.h).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_SETOPS_H
#define PERFPLAY_SUPPORT_SETOPS_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfplay {

namespace detail {

/// Intersection test for skewed sizes: every element of \p Small is
/// located in \p Large by exponential (galloping) probing from the last
/// position, so the cost is O(|Small| * log(gap)) instead of
/// O(|Small| + |Large|).
///
/// Loop invariants (audited; pinned by SetOpsTest's adversarial
/// regression cases and the fuzz cross-check against
/// std::set_intersection):
///
///  * At the top of each Small iteration, every element of Large
///    before \c Lo is `< Val` — established for the first iteration by
///    `Lo == begin` and re-established for the next, strictly larger
///    (or, with duplicates, equal) value because \c Lo finishes each
///    iteration at `lower_bound(Val)`, so a duplicate of a missing
///    value re-probes an empty window rather than a stale one.
///  * Inside the widening loop, `*Hi < Val` holds whenever \c Lo is
///    advanced to `Hi + 1`, and the probe distance is clamped to the
///    remaining tail (`min(Step, Remain)`), so the final widening step
///    can never overshoot `Large.end()`.
///  * The early `return false` on `Lo == Large.end()` is sound: it is
///    reached only when every remaining element of Large is `< Val`,
///    and Small being sorted ascending means no later value can be
///    smaller.
template <typename RangeT>
bool gallopingIntersects(const RangeT &Small, const RangeT &Large) {
  auto Lo = Large.begin();
  for (const auto &Val : Small) {
    // Exponentially widen [Lo, Hi) until *Hi >= Val (or Hi hits end);
    // elements before Lo are known to be < Val.
    size_t Step = 1;
    auto Hi = Lo;
    while (Hi != Large.end() && *Hi < Val) {
      Lo = Hi + 1;
      size_t Remain = static_cast<size_t>(Large.end() - Lo);
      Hi = Lo + std::min(Step, Remain);
      Step <<= 1;
    }
    // [Lo, Hi) is the window with everything before Lo < Val and
    // (when Hi != end) *Hi >= Val; lower_bound leaves Lo at the first
    // element >= Val, which doubles as the start for the next value.
    Lo = std::lower_bound(Lo, Hi, Val);
    if (Lo == Large.end())
      return false;
    if (!(Val < *Lo))
      return true;
  }
  return false;
}

} // namespace detail

/// Returns true if the sorted ranges \p A and \p B share an element.
/// Skewed inputs (read/write sets of a tiny section against a huge one)
/// take a galloping early-exit path; balanced inputs use a linear merge.
template <typename RangeT>
inline bool sortedIntersects(const RangeT &A, const RangeT &B) {
  if (A.empty() || B.empty())
    return false;
  // Disjoint value ranges cannot intersect.
  if (A.back() < B.front() || B.back() < A.front())
    return false;
  if (A.size() * 8 < B.size())
    return detail::gallopingIntersects(A, B);
  if (B.size() * 8 < A.size())
    return detail::gallopingIntersects(B, A);
  auto I = A.begin(), J = B.begin();
  while (I != A.end() && J != B.end()) {
    if (*I < *J)
      ++I;
    else if (*J < *I)
      ++J;
    else
      return true;
  }
  return false;
}

/// Returns the intersection of the sorted ranges \p A and \p B.
/// Duplicate semantics match std::set_intersection: a value occurring
/// m times in \p A and n times in \p B appears min(m, n) times.
template <typename T>
std::vector<T> sortedIntersection(const std::vector<T> &A,
                                  const std::vector<T> &B) {
  std::vector<T> Out;
  auto I = A.begin(), J = B.begin();
  while (I != A.end() && J != B.end()) {
    if (*I < *J) {
      ++I;
    } else if (*J < *I) {
      ++J;
    } else {
      Out.push_back(*I);
      ++I;
      ++J;
    }
  }
  return Out;
}

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_SETOPS_H
