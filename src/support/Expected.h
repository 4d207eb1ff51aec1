//===- support/Expected.h - Typed pipeline errors ----------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed error handling for the staged pipeline API: an error-code enum
/// covering every stage's failure modes, a small `PipelineError` carrier
/// pairing the code with a human-readable diagnostic, and `Expected<T>`
/// — a value-or-error sum type (with `T&` and `void` specializations)
/// that stage methods return instead of bare `std::string` errors.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_EXPECTED_H
#define PERFPLAY_SUPPORT_EXPECTED_H

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace perfplay {

/// Everything that can go wrong in the record → detect → transform →
/// replay → report pipeline, one code per distinguishable failure mode.
enum class ErrorCode : uint8_t {
  /// No error (PipelineError's default; never carried by a failed
  /// Expected).
  Success = 0,
  /// Trace::validate() rejected the input trace.
  InvalidTrace,
  /// The ORIG-S recording run that installs the grant schedule failed,
  /// or an in-process recording (runtime/Instrument.h) lost a record.
  RecordingFailed,
  /// A timing replay of the original trace failed (e.g. an enforced-
  /// order deadlock).
  OriginalReplayFailed,
  /// A timing replay of the transformed (ULCP-free) trace failed.
  TransformedReplayFailed,
  /// An Engine::analyzeBatch() item failed (placeholder while the
  /// batch runs; finished items carry the failing stage's own code).
  BatchItemFailed,
  /// The requested stage cannot run under the session's options (e.g.
  /// report() over a detection configured with CountsOnly, which
  /// discards the per-pair list the report needs).
  IncompatibleOptions,
  /// A trace file could not be read or parsed (readTraceFile, which
  /// Engine::openSessionFromFile calls): missing file, read error
  /// (e.g. the path is a directory), bad magic, or a corrupt/truncated
  /// body.  The message carries the loader's diagnostic.
  TraceIOFailed,
  /// A `perfplay serve` wire-protocol failure: malformed frame, an
  /// oversized length prefix, an unknown request type, or a socket
  /// error between client and daemon (serve/Protocol.h).
  ProtocolError,
  /// The serve daemon's admission control rejected the request because
  /// its connection queue was full; the client should back off and
  /// retry (serve/Server.h).
  ServerOverloaded,
};

/// Returns a stable identifier for \p Code ("invalid-trace", ...).
const char *errorCodeName(ErrorCode Code);

/// One pipeline failure: the machine-readable code plus the diagnostic
/// the legacy string-based API used to return.
struct PipelineError {
  ErrorCode Code = ErrorCode::Success;
  std::string Message;

  PipelineError() = default;
  PipelineError(ErrorCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {}

  bool isSuccess() const { return Code == ErrorCode::Success; }
};

/// Value-or-error: holds either a successfully computed T or the
/// PipelineError that prevented computing it.
///
/// Accessors follow one contract across all three specializations:
/// `ok()` / `operator bool` test for success, `*`/`->`/`value()`
/// require success, `error()`/`message()` require failure, and
/// `code()` is always callable (ErrorCode::Success when ok).
template <typename T> class Expected {
public:
  /// Success: wraps the computed value.
  Expected(T Value) : Storage(std::move(Value)) {}
  /// Failure: wraps the error (which must carry a non-Success code).
  Expected(PipelineError Err) : Storage(std::move(Err)) {
    assert(!error().isSuccess() && "error-state Expected needs a code");
  }

  /// True when a value is present.
  bool ok() const { return std::holds_alternative<T>(Storage); }
  explicit operator bool() const { return ok(); }

  T &operator*() {
    assert(ok());
    return std::get<T>(Storage);
  }
  const T &operator*() const {
    assert(ok());
    return std::get<T>(Storage);
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }
  const T &value() const { return **this; }

  const PipelineError &error() const {
    assert(!ok());
    return std::get<PipelineError>(Storage);
  }
  ErrorCode code() const { return ok() ? ErrorCode::Success : error().Code; }
  const std::string &message() const { return error().Message; }

private:
  std::variant<T, PipelineError> Storage;
};

/// Reference specialization: stage accessors hand out references to
/// session-owned cached intermediates without copying them.
template <typename T> class Expected<T &> {
public:
  Expected(T &Value) : Ptr(&Value) {}
  Expected(PipelineError Err) : Err(std::move(Err)) {
    assert(!this->Err.isSuccess() && "error-state Expected needs a code");
  }

  bool ok() const { return Ptr != nullptr; }
  explicit operator bool() const { return ok(); }

  T &operator*() const {
    assert(ok());
    return *Ptr;
  }
  T *operator->() const { return &**this; }
  T &value() const { return **this; }

  const PipelineError &error() const {
    assert(!ok());
    return Err;
  }
  ErrorCode code() const { return ok() ? ErrorCode::Success : Err.Code; }
  const std::string &message() const { return error().Message; }

private:
  T *Ptr = nullptr;
  PipelineError Err;
};

/// Success-or-error for stages with no value payload.
template <> class Expected<void> {
public:
  Expected() = default;
  Expected(PipelineError Err) : Err(std::move(Err)) {
    assert(!this->Err.isSuccess() && "error-state Expected needs a code");
  }

  bool ok() const { return Err.isSuccess(); }
  explicit operator bool() const { return ok(); }

  const PipelineError &error() const {
    assert(!ok());
    return Err;
  }
  ErrorCode code() const { return Err.Code; }
  const std::string &message() const { return error().Message; }

private:
  PipelineError Err;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_EXPECTED_H
