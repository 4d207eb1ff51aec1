//===- detect/CriticalSection.h - Critical-section extraction ---*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of critical sections from a trace, together with their
/// shadow-memory state: the sets of shared reads (C.Srd) and shared
/// writes (C.Swr) the paper's Algorithm 1 intersects.  Nested critical
/// sections are supported; an access made while several locks are held
/// belongs to every enclosing critical section.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_CRITICALSECTION_H
#define PERFPLAY_DETECT_CRITICALSECTION_H

#include "trace/Trace.h"

#include <vector>

namespace perfplay {

/// One critical section with its shadow-memory summary.
struct CriticalSection {
  /// Thread and per-thread index (numbered by opening acquire).
  CsRef Ref;
  /// Dense id across the whole trace (Trace::globalCsId).
  uint32_t GlobalId = InvalidId;
  LockId Lock = InvalidId;
  CodeSiteId Site = InvalidId;
  /// Acquisition mode of the opening event: Shared for rwlock readers
  /// (two Shared sections on the same lock never exclude each other,
  /// so reader-reader pairs are ULCP-free by construction), Exclusive
  /// for everything else.
  AcquireMode Mode = AcquireMode::Exclusive;
  /// Indices of the acquire / matching release in the thread stream.
  size_t AcquireIdx = 0;
  size_t ReleaseIdx = 0;
  /// Lock-nesting depth of the acquire (0 = outermost).
  unsigned Depth = 0;
  /// Sorted, de-duplicated condvar ids this section waited on /
  /// signaled (broadcast counts as signal).  A wait in one section and
  /// the matching signal in another orders the two sections causally —
  /// such pairs are true contention, never ULCPs, and skip replay.
  std::vector<LockId> CondWaits;
  std::vector<LockId> CondSignals;
  /// Sorted, de-duplicated shared addresses read / written between the
  /// acquire and its matching release (nested sections included).
  std::vector<AddrId> Reads;
  std::vector<AddrId> Writes;
  /// Total Compute cost between acquire and release.
  TimeNs InnerCost = 0;

  bool readsEmpty() const { return Reads.empty(); }
  bool writesEmpty() const { return Writes.empty(); }

  /// Canonicalizes the accumulated Reads/Writes/CondWaits/CondSignals
  /// (sort + de-duplicate).  The one set finalizer of detection:
  /// CsIndex::build and the windowed detector's representatives both
  /// end with it.
  void finalizeSets();
};

/// All critical sections of a trace, indexed by global id, plus the
/// per-lock order used when pairing them.
class CsIndex {
public:
  /// Extracts every critical section of \p Tr.  The per-lock order is
  /// taken from Tr.LockSchedule when present (the recorded grant order);
  /// otherwise it falls back to global-id order, which is only
  /// meaningful for single-threaded or hand-built traces.
  static CsIndex build(const Trace &Tr);

  const std::vector<CriticalSection> &all() const { return Sections; }

  const CriticalSection &byGlobalId(uint32_t Id) const {
    return Sections[Id];
  }

  size_t size() const { return Sections.size(); }

  /// Global CS ids protected by \p Lock, in pairing order.
  const std::vector<uint32_t> &sectionsOfLock(LockId Lock) const {
    return PerLock[Lock];
  }

  /// Every lock's pairing order, indexed by lock id.
  const std::vector<std::vector<uint32_t>> &lockOrders() const {
    return PerLock;
  }

  unsigned numLocks() const {
    return static_cast<unsigned>(PerLock.size());
  }

  /// Failed trylock attempts per lock: contention witnessed on the
  /// lock without a critical section ever opening.  Sized numLocks().
  const std::vector<uint64_t> &tryFailPerLock() const {
    return TryFailPerLock;
  }

  /// Total failed trylock attempts across all locks.
  uint64_t tryFailEdges() const {
    uint64_t N = 0;
    for (uint64_t C : TryFailPerLock)
      N += C;
    return N;
  }

private:
  std::vector<CriticalSection> Sections;
  std::vector<std::vector<uint32_t>> PerLock;
  std::vector<uint64_t> TryFailPerLock;
};

} // namespace perfplay

#endif // PERFPLAY_DETECT_CRITICALSECTION_H
