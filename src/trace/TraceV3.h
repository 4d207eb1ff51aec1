//===- trace/TraceV3.h - Chunked binary trace format v3 ---------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary trace format v3: fixed-size self-describing chunks with
/// delta-varint event payloads and per-chunk string-table deltas, plus
/// a chunk directory in the footer so readers can seek without
/// scanning.  The layout is modeled on T-espresso's slot-buffered
/// tracefile (fixed-size slots, per-slot record counts, commit
/// counters) and serves two consumers:
///
///  - **full load**: parseTraceV3 sizes every thread's event vector
///    from the directory and decodes each chunk straight into its
///    span, in file order, and
///  - **out-of-core streaming**: WindowedReader decodes one chunk at a
///    time through a reusable buffer, so resident memory is bounded by
///    the chunk size — not the trace size — while the accumulated
///    side tables (locks, sites, names, schedule) stay available.
///
/// The normative byte-level specification lives in
/// docs/TRACE_FORMAT.md; this header is the API.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRACE_TRACEV3_H
#define PERFPLAY_TRACE_TRACEV3_H

#include "trace/TraceIO.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfplay {

namespace detail {
struct V3TableState;
} // namespace detail

/// Default target for the encoded size of one chunk.  Large enough
/// that per-chunk headers and directory entries are noise, small
/// enough that a production-scale trace yields hundreds of chunks for
/// the parallel loader and that WindowedReader's resident buffer stays
/// tiny.
inline constexpr size_t DefaultV3ChunkBytes = 256 * 1024;

/// True when \p Data starts with the v3 magic ("PFPLTRC3").
bool hasTraceV3Magic(const uint8_t *Data, size_t Size);

/// Streaming v3 writer.  Feeds sequential bytes to a caller-supplied
/// sink, buffering only the chunk under construction plus the
/// directory (40 bytes per finished chunk) — so a corpus far larger
/// than memory can be written chunk-at-a-time without ever
/// materializing a Trace (the out-of-core bench does exactly that).
///
/// Protocol: register the lock/site tables (addLock/addSite, ids are
/// assigned densely in call order), then emit each thread's events in
/// program order between beginThread calls, then finish().  A chunk
/// holds events of exactly one thread; switching threads or exceeding
/// the target chunk size flushes.  Each lock/site is serialized as a
/// string-table delta inside the chunk that references it first;
/// entries no chunk references land in the remainder tables of the
/// side-table section.
///
/// Not thread-safe; one writer per file.
class TraceV3Writer {
public:
  /// Sink receiving the file's bytes in order.  Returns false on I/O
  /// failure, which poisons the writer (finish() will fail).
  using Sink = std::function<bool(const void *Data, size_t Size)>;

  explicit TraceV3Writer(Sink Out,
                         size_t TargetChunkBytes = DefaultV3ChunkBytes);

  /// Registers the next lock (dense ids in call order).  Must precede
  /// any event referencing it.
  uint32_t addLock(bool IsSpin, std::string_view Name);

  /// Registers the next code site (dense ids in call order).
  uint32_t addSite(uint32_t BeginLine, uint32_t EndLine,
                   std::string_view File, std::string_view Function);

  /// Subsequent append() calls emit events of \p Thread.  Flushes the
  /// current chunk when the thread changes.  Threads may be revisited,
  /// but each thread's events must arrive in program order overall.
  void beginThread(uint32_t Thread);

  /// Appends one event to the current thread's stream.
  void append(const Event &E);

  /// Side tables of transformed traces; empty by default.  Must be set
  /// before finish().
  void setSideTables(const LocksetTable &Locksets,
                     const std::vector<OrderConstraint> &Constraints,
                     const std::vector<std::vector<CsRef>> &Schedule);

  /// Total thread count written to the footer.  Defaults to the
  /// highest thread passed to beginThread() plus one; a whole-trace
  /// writer sets it explicitly so trailing event-less threads survive
  /// the round trip.
  void setNumThreads(uint32_t N);

  /// Flushes the last chunk, writes remainder tables, side tables,
  /// the chunk directory, and the footer.  Returns false (with
  /// \p Err set) if any sink write failed.  The writer is dead
  /// afterwards.
  bool finish(std::string &Err);

  /// Bytes handed to the sink so far.
  uint64_t bytesWritten() const { return Offset; }

private:
  struct DirEntry {
    uint64_t Offset = 0;
    uint32_t ByteSize = 0;
    uint32_t Thread = 0;
    uint32_t EventCount = 0;
    uint32_t AcquireCount = 0;
    uint64_t FirstTs = 0;
    uint64_t LastTs = 0;
  };
  struct PendingLock {
    bool IsSpin = false;
    std::string Name;
    bool Emitted = false;
  };
  struct PendingSite {
    uint32_t BeginLine = 0;
    uint32_t EndLine = 0;
    std::string File;
    std::string Function;
    bool Emitted = false;
  };

  void referenceLock(uint32_t Id);
  void referenceSite(uint32_t Id);
  void flushChunk();
  bool write(const void *Data, size_t Size);

  Sink Out;
  size_t TargetChunkBytes;
  bool SinkFailed = false;
  uint64_t Offset = 0;

  std::vector<PendingLock> Locks;
  std::vector<PendingSite> Sites;
  LocksetTable Locksets;
  std::vector<OrderConstraint> Constraints;
  std::vector<std::vector<CsRef>> Schedule;
  std::vector<DirEntry> Directory;
  uint32_t NumThreads = 0;
  bool NumThreadsExplicit = false;
  uint64_t TotalEvents = 0;
  /// Whether any rwlock/trylock/condvar event was appended; selects
  /// the 3.1 end magic so mutex-only traces stay byte-identical 3.0.
  bool SawExtended = false;

  // Chunk under construction.
  bool ChunkOpen = false;
  uint32_t CurThread = 0;
  std::vector<uint8_t> CurEvents;
  std::vector<uint32_t> CurNewLocks;
  std::vector<uint32_t> CurNewSites;
  uint32_t CurEventCount = 0;
  uint32_t CurAcquireCount = 0;
  uint64_t CurFirstTs = 0;
  uint64_t CurLastTs = 0;
  uint64_t PrevAddr = 0;

  /// Per-thread cumulative virtual time (sum of Compute costs), so a
  /// revisited thread's next chunk continues its timestamp line.
  std::vector<uint64_t> ThreadTs;
};

/// Serializes \p Tr into one in-memory v3 byte image (header, chunks,
/// side tables, directory, footer).  The streaming counterpart is
/// TraceV3Writer.
std::vector<uint8_t> writeTraceV3(const Trace &Tr,
                                  size_t TargetChunkBytes =
                                      DefaultV3ChunkBytes);

/// Parses a v3 byte image.  The footer directory sizes every
/// per-thread event vector exactly (its counts are byte-budget
/// validated before any allocation); one pass over the chunks then
/// checks each header, applies its string-table deltas and decodes its
/// events into the chunk's span, before the side tables are read.  The
/// critical-section index is installed from the directory's
/// decode-verified per-chunk acquire counts instead of an O(events)
/// rescan.  On failure returns false and sets \p Err.
bool parseTraceV3(const uint8_t *Data, size_t Size, Trace &Out,
                  std::string &Err);

/// Out-of-core v3 reader: streams chunks in file order through one
/// reusable buffer using plain stdio (never mmap), so peak resident
/// memory is bounded by the largest chunk plus the accumulated side
/// tables — the property the out-of-core bench gates with
/// `windowed_peak_rss_ratio`.  Lock/site tables grow as each chunk's
/// deltas apply; every entry an event references is guaranteed
/// defined by the time the event is handed out (deltas precede first
/// reference by construction), and the transformed-trace side tables
/// plus remainder entries are loaded eagerly by open().
class WindowedReader {
public:
  WindowedReader();
  ~WindowedReader();

  WindowedReader(const WindowedReader &) = delete;
  WindowedReader &operator=(const WindowedReader &) = delete;

  /// Opens \p Path, validating footer, directory, and side tables.
  /// On failure returns false with \p Err set and the reader closed.
  bool open(const std::string &Path, std::string &Err);

  void close();

  bool isOpen() const { return File != nullptr; }

  /// Shared tables accumulated so far: Locks/Sites/Names fill in as
  /// chunks stream; Locksets/Constraints/LockSchedule are complete
  /// from open().  Threads stays empty — events only ever live in the
  /// per-chunk buffer.
  const Trace &tables() const { return Tables; }

  uint32_t numThreads() const { return FooterNumThreads; }
  uint32_t numChunks() const {
    return static_cast<uint32_t>(Directory.size());
  }
  uint64_t totalEvents() const { return FooterTotalEvents; }

  /// One decoded chunk.  Events/FirstTs/LastTs describe a contiguous
  /// span of \p Thread's stream; spans of the same thread arrive in
  /// program order.
  struct Chunk {
    uint32_t Thread = 0;
    uint64_t FirstTs = 0;
    uint64_t LastTs = 0;
    std::vector<Event> Events;
  };

  /// Decodes the next chunk into \p Buf (whose Events vector is
  /// reused across calls).  Returns false at end of trace with \p Err
  /// empty, or on error with \p Err set.
  bool next(Chunk &Buf, std::string &Err);

  /// Restarts streaming from the first chunk (tables stay valid).
  void rewind() { NextChunk = 0; }

private:
  struct DirEntry {
    uint64_t Offset;
    uint32_t ByteSize;
    uint32_t Thread;
    uint32_t EventCount;
    uint32_t AcquireCount;
    uint64_t FirstTs;
    uint64_t LastTs;
  };

  std::FILE *File = nullptr;
  uint64_t FileSize = 0;
  Trace Tables;
  /// Which lock/site table slots have been defined so far (delta
  /// bookkeeping shared with the full parser; opaque here).
  std::unique_ptr<detail::V3TableState> ReaderTables;
  std::vector<DirEntry> Directory;
  /// Deltas already applied up to this chunk index; chunks at or past
  /// it still carry undigested deltas.
  size_t DeltasAppliedBelow = 0;
  size_t NextChunk = 0;
  uint32_t FooterNumThreads = 0;
  uint64_t FooterTotalEvents = 0;
  /// Minor format version from the footer's end magic; gates which
  /// event kinds the chunk decoder accepts.
  uint8_t FooterMinor = 0;
  std::vector<uint8_t> ChunkBuf;
};

/// Writes \p Tr to \p Path in v3 via the streaming writer, replacing
/// the file atomically (replaceFileAtomically, support/MappedFile.h).
/// Returns false on I/O error.  (saveTrace with TraceFormat::V3
/// forwards here.)
bool saveTraceV3(const Trace &Tr, const std::string &Path,
                 std::string &Err,
                 size_t TargetChunkBytes = DefaultV3ChunkBytes);

} // namespace perfplay

#endif // PERFPLAY_TRACE_TRACEV3_H
