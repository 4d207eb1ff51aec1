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
#include <string>

namespace perfplay {

/// Serializes \p Tr into the text format.
std::string writeTraceText(const Trace &Tr);

/// Parses the text format.  On failure returns false and sets \p Err.
bool parseTraceText(const std::string &Text, Trace &Out, std::string &Err);

/// On-disk trace encodings.
enum class TraceFormat {
  /// Line-oriented, human-readable; slow to parse at scale.
  Text,
  /// Chunked delta-varint binary (trace/TraceV3.h): parallel full
  /// load and bounded-memory streaming via the footer's chunk
  /// directory.
  V3,
};

/// Parses \p Data as either trace format, sniffing by magic bytes
/// (hasTraceV3Magic, trace/TraceV3.h).  v3 traces parse straight out
/// of \p Data; text traces are copied once into the line parser's
/// working string.  Names are copied into the Trace's string pool
/// either way, so \p Data may die as soon as this returns.
bool parseTraceBuffer(const uint8_t *Data, size_t Size, Trace &Out,
                      std::string &Err);

/// Writes \p Tr to \p Path in \p Format.  The bytes land in
/// `<Path>.tmp` and rename() swaps them in, so a reader that has
/// \p Path mapped keeps its old bytes instead of faulting on a
/// truncated file.  Returns false on I/O error.
bool saveTrace(const Trace &Tr, const std::string &Path, std::string &Err,
               TraceFormat Format = TraceFormat::Text);

/// How a load was actually served.  The interesting field is
/// MmapDowngradeReason: the loader silently falls back from the mmap
/// read to the copying stream read in several cases (pipes, empty
/// files, mounts that refuse mmap), and the only other symptom would
/// be a slower load — `perfplay stats --verbose` surfaces it.
struct TraceLoadInfo {
  /// Format detected by magic bytes.
  TraceFormat Format = TraceFormat::Text;
  /// True when the parse ran directly over a memory mapping.
  bool UsedMmap = false;
  /// Why the mmap read was not used; empty when it was.
  std::string MmapDowngradeReason;
};

/// Loads the trace at \p Path, auto-detecting the format.  There is
/// one policy and no knob: regular files are memory-mapped and parsed
/// straight out of the mapping (no whole-file copy), and the mapping
/// is released before this returns — the Trace owns all of its
/// storage.  Pipes, FIFOs, devices, empty files, and files whose mmap
/// fails are streamed through stdio instead.  When \p Info is given it
/// reports how the load was served.  Failures come back as
/// ErrorCode::TraceIOFailed.
Expected<Trace> readTraceFile(const std::string &Path,
                              TraceLoadInfo *Info = nullptr);

} // namespace perfplay

#endif // PERFPLAY_TRACE_TRACEIO_H
