//===- detect/WindowedDetect.h - Bounded-memory ULCP detection --*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-core ULCP detection: a WindowedDetector consumes a trace as a
/// stream of per-thread event windows (any sizes, any interleaving, as
/// long as each thread's events arrive in program order) and produces a
/// DetectResult **bit-identical** to running detectUlcps over the whole
/// trace — same pairs in the same order, same counts, same stats —
/// without ever materializing the event streams.
///
/// What makes that possible is that classification only sees a
/// critical section through its signature (detect/SectionKey.h): lock,
/// site, and the ordered stream of shared accesses (read addresses;
/// write address/operator/operand) between acquire and release.
/// Recorded read *values* are fed from the slots' initial values, never
/// from the section, so two sections with equal signatures are
/// interchangeable in every verdict.  The detector therefore packs, per
/// distinct signature, one **representative** section into a
/// SectionTable — the same flat table type CsIndex classifies from
/// (detect/CriticalSection.h) — and keeps per dynamic section only
/// three words of metadata (lock, signature key, thread — the global
/// id is derived).  Everything else streams through and is dropped at
/// the window boundary:
///
///  - still-open critical sections carry across windows as per-thread
///    stacks of buffered events (bounded by the widest section, not the
///    trace),
///  - the slots' initial values (CsIndex::build's thread-major
///    first-access fold) are folded incrementally: per address, the
///    candidate first access of the lowest-numbered accessing thread —
///    exactly the winner of the serial scan — and written into the
///    representatives' slots at finish(),
///  - finish() rebuilds the per-lock pairing order (grant schedule when
///    present, global-id order otherwise) from the metadata alone and
///    runs detectUlcps' pair enumerator (detect/PairEnumerator.h),
///    classifying every pair against its sections' representatives.
///
/// Peak memory is O(open sections + distinct signatures + addresses +
/// 12 bytes per dynamic section) — the out-of-core ingest bench gates
/// it at < 25% of the trace file's size.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_DETECT_WINDOWEDDETECT_H
#define PERFPLAY_DETECT_WINDOWEDDETECT_H

#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "detect/SectionKey.h"
#include "support/FlatMap.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfplay {

/// Streaming ULCP detector with whole-trace verdict parity.
///
/// Protocol: construct with the detection options, feed every thread's
/// event stream through addEvents() in program order (windows of
/// different threads may interleave arbitrarily; a window may split a
/// critical section — it stays open on the thread's stack), then call
/// finish() with the trace's side tables.  Single-threaded.
class WindowedDetector {
public:
  explicit WindowedDetector(DetectOptions Opts);
  ~WindowedDetector();

  WindowedDetector(const WindowedDetector &) = delete;
  WindowedDetector &operator=(const WindowedDetector &) = delete;

  /// Feeds \p N events of thread \p T (the next window of its stream).
  /// Returns false on a structural error (release without acquire,
  /// mismatched release lock) with \p Err set; the detector is dead
  /// afterwards.
  bool addEvents(ThreadId T, const Event *Events, size_t N,
                 std::string &Err);

  /// Ends the stream and runs the pair enumeration.  \p Tables supplies
  /// the lock table (pairing iterates lock ids) and the recorded grant
  /// schedule when the trace carries one — pass the full trace, or a
  /// WindowedReader's tables() (whose Threads are empty; events were
  /// already streamed).  On success fills \p Out with the DetectResult
  /// detectUlcps would produce on the whole trace; on failure returns
  /// false with \p Err set.
  bool finish(const Trace &Tables, DetectResult &Out, std::string &Err);

  /// Dynamic critical sections closed so far.
  uint64_t numSections() const { return TotalSections; }

  /// Distinct section signatures interned so far (== representative
  /// sections in the table).
  uint32_t numSignatures() const { return Signatures.numKeys(); }

  /// Events currently buffered on open-section stacks — the carry
  /// across the active window boundary.
  uint64_t openEvents() const { return OpenEvents; }

  /// High-water mark of openEvents() over the whole stream.
  uint64_t peakOpenEvents() const { return PeakOpenEvents; }

private:
  /// One still-open critical section on a thread's stack, buffering its
  /// events (acquire through release, nested sections included
  /// verbatim) until the close decides whether they become a
  /// representative.
  struct OpenSection {
    uint32_t PerThreadIdx = 0;
    LockId Lock = InvalidId;
    CodeSiteId Site = InvalidId;
    /// Acquisition mode of the opening event (Shared for rwlock
    /// readers); part of the signature and the representative.
    AcquireMode Mode = AcquireMode::Exclusive;
    std::vector<Event> Buf;
  };

  struct ThreadState {
    std::vector<OpenSection> Stack;
    /// Per closed-or-open section, in per-thread (acquire) order:
    /// the acquired lock, and the signature key (filled at close).
    std::vector<LockId> Locks;
    std::vector<uint32_t> KeyIds;
  };

  /// Candidate initial value for the incremental slot fold: the first
  /// access to an address by its lowest-numbered accessing thread.
  struct FirstAccess {
    uint32_t Thread = 0;
    uint8_t IsRead = 0;
    uint64_t Value = 0;
  };

  ThreadState &stateOf(ThreadId T);
  void noteAccess(ThreadId T, const Event &E);
  /// Interns the closed section's signature (creating a representative
  /// on first sight) and returns its key id.
  uint32_t closeSection(OpenSection &&Top);

  DetectOptions Opts;
  std::string StreamErr;

  std::vector<ThreadState> Threads;
  uint64_t TotalSections = 0;
  uint64_t OpenEvents = 0;
  uint64_t PeakOpenEvents = 0;

  /// Signature -> dense key id, the same scheme internSectionKeys uses.
  SignatureInterner Signatures;
  /// One representative section per key, at position = key.
  SectionTable Reps;
  /// Reused body buffer of closeSection.
  SectionBody Body;

  /// Incremental first-access fold of the slots' initial values (only
  /// maintained when the options request the reversed replay).
  FlatMap<AddrId, FirstAccess> First;

  /// Failed trylock attempts per lock, folded as the stream arrives
  /// (the lock table is unknown until finish(), hence a map).
  FlatMap<LockId, uint64_t> TryFails;
};

} // namespace perfplay

#endif // PERFPLAY_DETECT_WINDOWEDDETECT_H
