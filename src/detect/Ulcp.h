//===- detect/Ulcp.h - ULCP pair model ---------------------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Unnecessary Lock Contention Pair (ULCP) vocabulary: the four
/// categories of Section 2.1 plus true lock contention (the paper's
/// TLCP), and the pair record flowing from detection through
/// transformation into the performance report.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_ULCP_H
#define PERFPLAY_DETECT_ULCP_H

#include "trace/Event.h"

#include <cstdint>

namespace perfplay {

/// Classification of a pair of critical sections protected by the same
/// lock (Section 2.1).
enum class UlcpKind : uint8_t {
  /// No shared access in at least one section (Figure 3's if-branch).
  NullLock,
  /// Only reads on shared data in both sections (Figure 4).
  ReadRead,
  /// Disjoint updated locations, at least one write (pointer-alias
  /// style updates of different objects).
  DisjointWrite,
  /// Conflicting accesses whose interleavings produce identical results
  /// (redundant writes, commutative read-modify-writes); established by
  /// reversed replay.
  Benign,
  /// Real data conflict: a True Lock Contention Pair, not a ULCP.
  TrueContention,
};

/// Returns the paper's abbreviation for \p Kind ("NL", "RR", "DW",
/// "Benign", "TLCP").
const char *ulcpKindName(UlcpKind Kind);

/// True for the four unnecessary categories, false for TrueContention.
inline bool isUnnecessary(UlcpKind Kind) {
  return Kind != UlcpKind::TrueContention;
}

/// One classified pair.  First precedes Second in the per-lock pairing
/// order; both are global critical-section ids.
struct UlcpPair {
  uint32_t First = InvalidId;
  uint32_t Second = InvalidId;
  UlcpKind Kind = UlcpKind::TrueContention;
};

/// Per-category totals (the columns of Table 1).
struct UlcpCounts {
  uint64_t NullLock = 0;
  uint64_t ReadRead = 0;
  uint64_t DisjointWrite = 0;
  uint64_t Benign = 0;
  uint64_t TrueContention = 0;

  uint64_t totalUnnecessary() const {
    return NullLock + ReadRead + DisjointWrite + Benign;
  }

  uint64_t total() const { return totalUnnecessary() + TrueContention; }

  /// Increments the bucket for \p Kind (inline: detection calls it
  /// once per pair).
  void add(UlcpKind Kind) {
    switch (Kind) {
    case UlcpKind::NullLock:
      ++NullLock;
      break;
    case UlcpKind::ReadRead:
      ++ReadRead;
      break;
    case UlcpKind::DisjointWrite:
      ++DisjointWrite;
      break;
    case UlcpKind::Benign:
      ++Benign;
      break;
    case UlcpKind::TrueContention:
      ++TrueContention;
      break;
    }
  }
};

} // namespace perfplay

#endif // PERFPLAY_DETECT_ULCP_H
