//===- trace/TraceIO.h - Trace (de)serialization -----------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace persistence in two formats: a line-oriented text format for
/// human inspection and goldens, and the chunked binary v3 format for
/// large recordings (trace/TraceV3.h).  Both round-trip every field
/// including transformed-trace side tables (locksets, constraints, lock
/// schedule).
///
/// The paper separates trace loading and format conversion from the
/// measured replay time (Section 6.1); keeping I/O in its own module
/// mirrors that separation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRACE_TRACEIO_H
#define PERFPLAY_TRACE_TRACEIO_H

#include "support/Expected.h"
#include "trace/Trace.h"

#include <cstdint>
#include <memory>
#include <string>

namespace perfplay {

/// Serializes \p Tr into the text format.
std::string writeTraceText(const Trace &Tr);

/// Parses the text format.  On failure returns false and sets \p Err.
bool parseTraceText(const std::string &Text, Trace &Out, std::string &Err);

/// How a parser stores the names it reads into the Trace's string pool
/// (trace/Trace.h, support/StringPool.h).
enum class NameStorage {
  /// Copy each distinct name once into the pool's arena.  The parsed
  /// Trace owns all of its storage; safe for any input buffer.
  Owned,
  /// Intern `string_view`s pointing straight into the input buffer —
  /// zero per-name heap copies.  The caller guarantees the buffer
  /// outlives the Trace (openTraceFile pins the file mapping in its
  /// LoadedTrace for exactly this purpose).  Only the v3 parser can
  /// borrow; the text parser unescapes into the arena regardless.
  Borrowed,
};

/// On-disk trace encodings.
enum class TraceFormat {
  /// Line-oriented, human-readable; slow to parse at scale.
  Text,
  /// Chunked delta-varint binary (trace/TraceV3.h): parallel full
  /// load and bounded-memory streaming via the footer's chunk
  /// directory.
  V3,
};

/// Parses \p Data as either trace format, sniffing by magic bytes —
/// the one place the format is decided.  v3 traces parse straight out
/// of the borrowed buffer (owned names); text traces are copied once
/// into the line parser's working string.
bool parseTraceBuffer(const uint8_t *Data, size_t Size, Trace &Out,
                      std::string &Err);

/// Writes \p Tr to \p Path in \p Format.  The bytes land in
/// `<Path>.tmp` and rename() swaps them in, so a reader that has
/// \p Path mapped keeps its old bytes instead of faulting on a
/// truncated file.  Returns false on I/O error.
bool saveTrace(const Trace &Tr, const std::string &Path, std::string &Err,
               TraceFormat Format = TraceFormat::Text);

class MappedFile;

/// How a load was actually served.  The interesting field is
/// MmapDowngradeReason: the loader silently falls back from the
/// zero-copy mmap path to the copying stream path in several cases
/// (pipes, empty files, mounts that refuse mmap), and the only other
/// symptom would be a slower load — `perfplay stats --verbose`
/// surfaces it.
struct TraceLoadInfo {
  /// Format detected by magic bytes.
  TraceFormat Format = TraceFormat::Text;
  /// True when the parse ran directly over a memory mapping.
  bool UsedMmap = false;
  /// True when lock/site names borrow from the pinned mapping.
  bool BorrowedNames = false;
  /// Why the zero-copy mmap path was not used; empty when it was.
  std::string MmapDowngradeReason;
};

/// A trace loaded from a file, with whatever keeps it valid.
struct LoadedTrace {
  Trace Tr;
  /// The file mapping Tr's names borrow from; set only when
  /// Info.BorrowedNames.  Whoever keeps Tr must keep this too
  /// (AnalysisSession::setBackingMapping).
  std::shared_ptr<const MappedFile> Mapping;
  TraceLoadInfo Info;
};

/// Loads the trace at \p Path, auto-detecting the format.  There is
/// one policy and no knob: regular files are memory-mapped, and a v3
/// trace parses straight out of the mapping with its names borrowed
/// from it (no whole-file copy, no per-name copy).  Pipes, FIFOs,
/// devices, empty files, and files whose mmap fails are streamed
/// through stdio instead, and Info.MmapDowngradeReason says why.
/// Failures come back as ErrorCode::TraceIOFailed.
Expected<LoadedTrace> openTraceFile(const std::string &Path);

/// openTraceFile for callers that want a self-contained Trace: the
/// same policy, but names are always owned, so nothing needs pinning.
Expected<Trace> readTraceFile(const std::string &Path);

} // namespace perfplay

#endif // PERFPLAY_TRACE_TRACEIO_H
