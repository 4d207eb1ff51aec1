//===- support/MappedFile.h - Read-only memory-mapped file -------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An RAII read-only view of a file's bytes.  On POSIX systems the
/// file is mmap'd (zero-copy: the parser reads straight out of the
/// page cache, and the kernel drops clean pages under memory
/// pressure); elsewhere the file is read into an owned buffer, so
/// callers get the same data()/size() contract everywhere.
///
/// Production-scale v3 traces are the motivating consumer: the trace
/// loader (trace/TraceIO.h, readTraceFile) parses the mapping directly,
/// skipping the whole-file std::vector copy a stream read makes, and
/// unmaps it as soon as the parse returns.
///
/// Caveat inherent to mmap: if a file is truncated while a mapping of
/// it is live — during a parse, or a serve request's parse and hash —
/// touching pages past the new end raises SIGBUS (a crash, not a parse
/// error).  Every in-repo trace writer therefore replaces files with
/// replaceFileAtomically (or, for the recorder, its own `.tmp` +
/// rename), which leaves a live mapping on the old bytes.  A foreign
/// process that truncates a trace in place during a parse can still
/// crash the reader.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_MAPPEDFILE_H
#define PERFPLAY_SUPPORT_MAPPEDFILE_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace perfplay {

/// Read-only bytes of one file, memory-mapped when the platform
/// supports it.  Movable, not copyable; the view dies with the object.
class MappedFile {
public:
  MappedFile() = default;
  ~MappedFile() { close(); }

  MappedFile(MappedFile &&Other) noexcept { *this = std::move(Other); }
  MappedFile &operator=(MappedFile &&Other) noexcept;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;

  /// True when this build maps files instead of reading them.
  static bool supportsMapping();

  /// What \p Path names, for mapping purposes.
  enum class PathKind {
    /// stat() failed — let open() produce the diagnostic.
    Missing,
    /// A regular file; mapping works.
    Regular,
    /// Exists but cannot be usefully mapped (pipe, FIFO, device).
    /// Opening one of these can block and consumes a pipe's read end,
    /// so loaders must not even attempt it.
    Other,
  };
  static PathKind classifyPath(const std::string &Path);

  /// Opens \p Path and makes its bytes addressable.  On failure
  /// returns false, sets \p Err, and leaves the object closed.
  /// Reopening an already-open object closes the previous view first.
  bool open(const std::string &Path, std::string &Err);

  /// Releases the mapping (or fallback buffer).  Idempotent.
  void close();

  /// First byte of the file; nullptr when closed or the file is empty.
  const uint8_t *data() const { return Data; }
  size_t size() const { return Size; }

  /// True when data() points into a real mmap (not the read fallback).
  bool isMapped() const { return Mapped; }

private:
  const uint8_t *Data = nullptr;
  size_t Size = 0;
  bool Mapped = false;
  /// Owns the bytes on platforms without mmap (and for empty files).
  std::vector<uint8_t> Fallback;
};

/// Replaces the file at \p Path so that no mapping of it ever faults:
/// \p Write fills `<Path>.tmp` (setting its error argument on failure),
/// and rename() then swaps the new file in, so a live mapping keeps the
/// old bytes.  On failure returns false with \p Err set and removes the
/// temporary.
bool replaceFileAtomically(
    const std::string &Path, std::string &Err,
    const std::function<bool(std::FILE *F, std::string &Err)> &Write);

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_MAPPEDFILE_H
