//===- record/Flusher.h - RawRecord → TraceV3Writer translator -*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-consumer half of the recorder: translates the
/// RawRecords drained from every thread's ring into structurally valid
/// per-thread Event streams and feeds them straight into a streaming
/// TraceV3Writer (v3.1 chunked format) whose sink the runtime chooses —
/// the shim's `<out>.tmp` file, or an in-memory buffer for the
/// in-process recorder (runtime/Instrument.h).  No in-memory Trace is
/// ever materialized here, so recording scales with the chunk size, not
/// the trace size.  This is the only code that turns recorded
/// operations into Events.
///
/// The translator owns everything Trace::validate() demands that raw
/// pthread streams do not guarantee:
///
///  * ThreadStart / ThreadEnd framing is synthesized (lazily on a
///    thread's first record; at finalize for threads that never pushed
///    a ThreadEnd — e.g. the main thread).
///  * Strict LIFO nesting: a non-LIFO unlock (hand-over-hand locking)
///    is fixed up by synthesizing releases of the sections stacked
///    above it and re-opening them afterwards, counted in
///    SynthesizedReleases so the distortion is visible.
///  * Releases of locks with no recorded open (taken before recording
///    started, or whose open record was dropped) are suppressed and
///    counted in UnmatchedReleases — never emitted, never deadlocked.
///  * The cond-wait dance (Appendix Case 1): CondWait inside the open
///    section, then release, then re-acquire with no compute charged
///    for the sleep.
///
/// Threading: TraceFlusher itself takes no locks — RecordRuntime
/// serializes every call (background drain loop and finalize) under
/// its flush mutex; see Preload.h for the hierarchy.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_RECORD_FLUSHER_H
#define PERFPLAY_RECORD_FLUSHER_H

#include "record/RingBuffer.h"
#include "trace/TraceV3.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfplay {
namespace record {

/// Translation counters, folded into RecordSummary at finalize.
struct FlushStats {
  /// RawRecords drained and translated.
  uint64_t Records = 0;
  /// Events appended to the v3 stream (including synthesized ones).
  uint64_t TraceEvents = 0;
  /// Critical sections opened.
  uint64_t Sections = 0;
  /// Releases synthesized for LIFO fixups and threads that ended (or
  /// were finalized) holding locks.
  uint64_t SynthesizedReleases = 0;
  /// Releases (and cond-wait dances) suppressed because the lock had
  /// no recorded open on the thread's stack.
  uint64_t UnmatchedReleases = 0;
};

/// A lock or condvar registered by name.  The runtime interns the
/// entry's address under LockTagNamed; ensureLock reads the name back.
struct NamedLock {
  std::string Name;
  bool IsSpin = false;
};

/// A code site registered by name, interned under SiteTagNamed.
struct NamedSite {
  std::string File;
  std::string Function;
  uint32_t BeginLine = 0;
  uint32_t EndLine = 0;
};

/// Streams drained RawRecords into a TraceV3Writer over \p Out.
class TraceFlusher {
public:
  TraceFlusher(TraceV3Writer::Sink Out, size_t ChunkBytes);

  TraceFlusher(const TraceFlusher &) = delete;
  TraceFlusher &operator=(const TraceFlusher &) = delete;

  /// Drains \p TS's ring, translating every record.  \p Locks and
  /// \p Sites are the runtime's registries (new entries are registered
  /// with the writer on first reference).
  void drain(ThreadState &TS, const AddrTable &Locks, const AddrTable &Sites);

  /// Registers every lock and site interned so far (named ones no
  /// record referenced included), closes every open section, frames
  /// every thread and writes the footer.  \p NumThreads is the
  /// registry's final thread count (ids below it that never produced a
  /// record still get an empty ThreadStart/ThreadEnd frame so the dense
  /// id space survives the round trip).  Call once.  Returns false
  /// with \p OutErr set when the writer's sink failed.
  bool finalize(uint32_t NumThreads, const AddrTable &Locks,
                const AddrTable &Sites, std::string &OutErr);

  const FlushStats &stats() const { return Stats; }

private:
  /// One open critical section on a thread's translation stack.
  struct OpenSection {
    uint32_t Lock;
    uint32_t Site;
    /// Event kind that re-opens this section after a LIFO fixup.
    EventKind ReopenKind;
  };

  /// Per-thread translation state, indexed by dense thread id.
  struct EmitState {
    bool Started = false;
    bool Ended = false;
    uint64_t LastTs = 0;
    std::vector<OpenSection> Stack;
  };

  void translate(EmitState &ES, const RawRecord &R, const AddrTable &Locks,
                 const AddrTable &Sites);
  /// Appends Compute(Now - LastTs) when positive and advances LastTs.
  void charge(EmitState &ES, uint64_t Now);
  void emit(const Event &E);
  void emitOpen(EmitState &ES, EventKind Kind, uint32_t Lock, uint32_t Site,
                bool Shared = false);
  /// Synthesizes releases for Stack[From..] (top first) and returns
  /// the saved entries for re-opening.
  std::vector<OpenSection> unwindAbove(EmitState &ES, size_t From);
  void reopen(EmitState &ES, const std::vector<OpenSection> &Saved);
  void closeThread(EmitState &ES);
  /// Registers registry ids up to and including \p Id with the writer
  /// (dense writer ids mirror registry ids by construction).
  void ensureLock(uint32_t Id, const AddrTable &Locks);
  void ensureSite(uint32_t Id, const AddrTable &Sites);
  /// Maps a registry site id to the trace site id (InvalidId when the
  /// registry overflowed).
  uint32_t siteOf(uint32_t Id, const AddrTable &Sites);

  std::unique_ptr<TraceV3Writer> Writer;

  std::vector<EmitState> PerThread;
  uint32_t WriterLocks = 0;
  uint32_t WriterSites = 0;
  FlushStats Stats;
  bool Finalized = false;
};

/// Best-effort pretty name for a return address: `function` from
/// dladdr when the symbol is exported, otherwise `module+0xoffset`
/// from /proc/self/maps, otherwise the raw address.  \p File receives
/// the containing object's path (or "??").  Exposed for tests.
void describeReturnAddress(uintptr_t Addr, std::string &File,
                           std::string &Function);

} // namespace record
} // namespace perfplay

#endif // PERFPLAY_RECORD_FLUSHER_H
