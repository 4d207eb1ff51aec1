//===- detect/SectionKey.h - Canonical critical-section keys ----*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical (interned) keys over critical sections: two sections get
/// the same key iff they are indistinguishable to pair classification —
/// same lock, same code site, and the same value signature (the ordered
/// stream of shared-memory operations between acquire and release,
/// which determines both the Algorithm-1 read/write sets and the
/// reversed-replay outcome).  Two users rely on that:
///
///  - RULE 1 (transform/Topology.cpp) memoizes its classifications by
///    key pair on the locks whose conflict index revisits the same
///    pairs of benign section bodies many times;
///  - the windowed detector (detect/WindowedDetect.h) keeps one
///    representative section per signature.
///
/// Detection itself classifies every pair directly: on the Table-1
/// models keys are nearly unique, so a verdict cache there costs more
/// than it saves.
///
/// Signatures are pure integers end to end: the lock and site words are
/// table ids whose *names* live in the trace's string pool
/// (support/StringPool.h), so no string is hashed or compared while
/// interning — name equality collapsed to id equality the moment the
/// parser interned the tables.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_SECTIONKEY_H
#define PERFPLAY_DETECT_SECTIONKEY_H

#include "detect/CriticalSection.h"
#include "trace/Trace.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfplay {

/// Interned section keys for one trace: KeyOf[GlobalId] is a dense id
/// in [0, numKeys) identifying the section's equivalence class.
struct SectionKeyTable {
  std::vector<uint32_t> KeyOf;
  uint32_t NumKeys = 0;

  /// Packs the key pair {A, B} order-independently (classification is
  /// symmetric in the two sections) into one 64-bit memo key.
  static uint64_t pairKey(uint32_t A, uint32_t B) {
    if (A > B)
      std::swap(A, B);
    return (static_cast<uint64_t>(A) << 32) | B;
  }
};

/// Maps section signatures to dense key ids in first-seen order.  The
/// one signature scheme: the whole-trace interning below, RULE 1's
/// lock-local memo and the windowed detector's representatives all go
/// through it, so they partition sections identically.
///
/// The signature covers (Lock, Site, Mode) plus each Read's address,
/// each Write's (address, operand, operator) and each condvar
/// wait/signal.  Read *values* are excluded on purpose: the reversed
/// replay feeds reads from the slots' initial values, not from the
/// recorded value, so they cannot influence a verdict — and excluding
/// them merges more dynamic sections into one key.
class SignatureInterner {
public:
  void reserve(size_t N) { Interned.reserve(N); }

  /// Interns the section of \p Lock / \p Site / \p Mode whose interior
  /// events (strictly between acquire and release) are [Begin, End).
  /// Returns the key id and whether this call created it.
  std::pair<uint32_t, bool> intern(LockId Lock, CodeSiteId Site,
                                   AcquireMode Mode, const Event *Begin,
                                   const Event *End);

  /// Interns the critical section \p Cs of \p Tr.
  uint32_t intern(const Trace &Tr, const CriticalSection &Cs);

  uint32_t numKeys() const { return static_cast<uint32_t>(Interned.size()); }

private:
  struct WordsHash {
    size_t operator()(const std::vector<uint64_t> &Words) const;
  };
  std::unordered_map<std::vector<uint64_t>, uint32_t, WordsHash> Interned;
};

/// Interns every critical section of \p Index.
SectionKeyTable internSectionKeys(const Trace &Tr, const CsIndex &Index);

} // namespace perfplay

#endif // PERFPLAY_DETECT_SECTIONKEY_H
