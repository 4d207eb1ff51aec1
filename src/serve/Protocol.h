//===- serve/Protocol.h - Serve daemon wire protocol -------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `perfplay serve` wire protocol: a small length-prefixed framed
/// request/response format over a unix-domain stream socket, plus the
/// blocking client the CLI, tests, and benches use to speak it.
///
/// Every frame is
///
///   u32 PayloadLen (LE) | u8 Type | PayloadLen payload bytes
///
/// PayloadLen counts payload bytes only (not the 5-byte header) and is
/// validated against FrameLimits::MaxFrameBytes *before* any payload
/// allocation, so a hostile length prefix can never drive memory past
/// the frame budget — the same count-vs-budget discipline the binary
/// trace parser applies (docs/TRACE_FORMAT.md).  Inside a payload,
/// every embedded length (e.g. a path) is validated against the bytes
/// actually present.
///
/// Requests:  Analyze (trace path + the options the daemon honors),
///            Stats (health/counters), Shutdown (drain and exit).
/// Responses: Result (the bit-identical verdict/counter summary),
///            Stats, Error (typed ErrorCode + diagnostic).
///
/// A malformed frame is answered with an Error response when the
/// stream is still framable (unknown type, bad payload) and with a
/// dropped connection when it is not (oversized prefix, truncation) —
/// the daemon itself keeps serving either way
/// (tests/ServeProtocolTest.cpp is the hostile corpus).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SERVE_PROTOCOL_H
#define PERFPLAY_SERVE_PROTOCOL_H

#include "core/AnalysisSession.h"
#include "support/Expected.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfplay {
namespace serve {

/// Frame type tags.  Requests and responses share the one namespace so
/// a frame is self-describing on either side of the socket.
enum class FrameType : uint8_t {
  /// Request: analyze the trace at a path (payload: AnalyzeRequest).
  AnalyzeRequest = 1,
  /// Request: return the daemon's counters (empty payload).
  StatsRequest = 2,
  /// Request: drain in-flight work and stop accepting (empty payload).
  ShutdownRequest = 3,
  /// Response: a finished analysis (payload: ResultSummary).
  ResultResponse = 16,
  /// Response: daemon counters (payload: ServeStats).
  StatsResponse = 17,
  /// Response: a typed failure (payload: u8 code + u32 len + message).
  ErrorResponse = 18,
};

/// Per-connection frame budgets.  MaxFrameBytes bounds every
/// allocation a frame can cause; the default is generous for paths
/// and summaries (both are tiny) while keeping a hostile 4 GiB length
/// prefix unsatisfiable.
struct FrameLimits {
  uint32_t MaxFrameBytes = 1 << 20; // 1 MiB
};

/// One decoded frame header + payload.
struct Frame {
  FrameType Type = FrameType::ErrorResponse;
  std::vector<uint8_t> Payload;
};

/// An analysis request: the trace path (the daemon mmaps it — admission
/// is near-free) and the option subset that changes verdicts.  Thread
/// counts are deliberately absent: the daemon owns its fair-share
/// budget (Engine::cappedDetectThreads over the worker count) and a
/// client must not be able to oversubscribe the machine.
struct AnalyzeRequest {
  /// Pair enumeration mode: 0 = adjacent (default), 1 = all
  /// cross-thread pairs.
  uint8_t PairMode = 0;
  /// Skip the result cache for this request (bench cold-path control;
  /// also lets a client force re-reading a changed file).
  uint8_t NoCache = 0;
  std::string Path;
};

/// The response summary of one analysis: exactly the counters that are
/// bit-identical for a given trace + options no matter how detection
/// was parallelized, so daemon-vs-Engine parity is a field-for-field
/// comparison (asserted by tests/ServeTest.cpp and the serve bench).
struct ResultSummary {
  // Detection (Table 1 columns + extended-vocabulary edges).
  uint64_t NullLock = 0;
  uint64_t ReadRead = 0;
  uint64_t DisjointWrite = 0;
  uint64_t Benign = 0;
  uint64_t TrueContention = 0;
  uint64_t TryFailEdges = 0;
  // Transformation.
  uint64_t TopologyEdges = 0;
  uint64_t NumAuxLocks = 0;
  uint64_t NumStandalone = 0;
  // Replays (both under the engine's configured scheme/seed).
  uint64_t OriginalTotalTime = 0;
  uint64_t UlcpFreeTotalTime = 0;
  /// 1 when this request did not run the pipeline: the answer was
  /// cached, or another request was computing it and this one waited.
  uint8_t FromResultCache = 0;

  /// Parity comparison: every pipeline-determined field, ignoring the
  /// cache provenance flag.
  bool sameVerdicts(const ResultSummary &O) const {
    return NullLock == O.NullLock && ReadRead == O.ReadRead &&
           DisjointWrite == O.DisjointWrite && Benign == O.Benign &&
           TrueContention == O.TrueContention &&
           TryFailEdges == O.TryFailEdges &&
           TopologyEdges == O.TopologyEdges &&
           NumAuxLocks == O.NumAuxLocks &&
           NumStandalone == O.NumStandalone &&
           OriginalTotalTime == O.OriginalTotalTime &&
           UlcpFreeTotalTime == O.UlcpFreeTotalTime;
  }
};

/// Builds the ResultSummary of \p R (the parity-comparable projection
/// of a PipelineResult).
ResultSummary summarizeResult(const PipelineResult &R);

/// The daemon's health/metrics counters (the STATS response).  All
/// monotonic except QueueDepth and the latency percentiles, which are
/// point-in-time.
struct ServeStats {
  uint64_t RequestsServed = 0;
  uint64_t RequestsFailed = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t RequestsRejected = 0; // admission control (queue full)
  uint64_t ResultCacheHits = 0;
  uint64_t ResultCacheMisses = 0; // pipeline runs through the cache
  uint64_t CacheEvictions = 0;
  uint64_t CachedResults = 0;  // point-in-time
  uint64_t CacheBytes = 0;     // point-in-time
  uint64_t QueueDepth = 0;     // point-in-time
  uint64_t P50Micros = 0;      // over the recent-latency window
  uint64_t P99Micros = 0;
};

// -- Frame encoding ----------------------------------------------------------

/// Appends the 5-byte header + \p Payload to \p Out.
void encodeFrame(FrameType Type, const std::vector<uint8_t> &Payload,
                 std::vector<uint8_t> &Out);

/// Payload encoders (header-less; pair with encodeFrame).
std::vector<uint8_t> encodeAnalyzeRequest(const AnalyzeRequest &Req);
std::vector<uint8_t> encodeResultSummary(const ResultSummary &Sum);
std::vector<uint8_t> encodeServeStats(const ServeStats &Stats);
std::vector<uint8_t> encodeError(ErrorCode Code, const std::string &Msg);

/// Payload decoders.  Every embedded length is checked against the
/// bytes present; failure returns false with a diagnostic in \p Err
/// and leaves the output untouched or partially written (callers
/// treat any false as a protocol error).
bool decodeAnalyzeRequest(const uint8_t *Data, size_t Size,
                          AnalyzeRequest &Out, std::string &Err);
bool decodeResultSummary(const uint8_t *Data, size_t Size,
                         ResultSummary &Out, std::string &Err);
bool decodeServeStats(const uint8_t *Data, size_t Size, ServeStats &Out,
                      std::string &Err);
bool decodeError(const uint8_t *Data, size_t Size, ErrorCode &Code,
                 std::string &Msg, std::string &Err);

// -- Framed socket I/O -------------------------------------------------------

/// Reads one frame from \p Fd.  Returns 1 on success, 0 on clean EOF
/// before any header byte (the peer is done), and -1 on error — a
/// truncated header/payload, an oversized length prefix (checked
/// against \p Limits before any allocation), or a socket failure —
/// with the diagnostic in \p Err.  \p IdleTimeoutMs bounds how long to
/// wait for the *first* byte (0 = forever); a peer that goes silent
/// mid-frame fails after the same timeout.
int readFrame(int Fd, Frame &Out, const FrameLimits &Limits,
              std::string &Err, int IdleTimeoutMs = 0);

/// Writes one frame to \p Fd (MSG_NOSIGNAL — a disconnected peer is a
/// false return, never a SIGPIPE).  Partial writes are retried.
bool writeFrame(int Fd, FrameType Type, const std::vector<uint8_t> &Payload,
                std::string &Err);

// -- Client ------------------------------------------------------------------

/// A blocking client over one daemon connection.  Not thread-safe —
/// one connection per thread (the daemon multiplexes across
/// connections, not within one).  Used by `perfplay client`, the
/// integration tests, and bench_micro_serve_throughput.
class ServeClient {
public:
  ServeClient() = default;
  ~ServeClient();
  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;
  ServeClient(ServeClient &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }

  /// Connects to the daemon's unix socket at \p SocketPath.
  Expected<void> connect(const std::string &SocketPath);

  bool connected() const { return Fd >= 0; }
  void close();

  /// Round-trips one analysis request.  Daemon-side failures come back
  /// as their typed ErrorCode; local socket failures as
  /// ErrorCode::ProtocolError.
  Expected<ResultSummary> analyze(const AnalyzeRequest &Req);

  /// Fetches the daemon's counters.
  Expected<ServeStats> stats();

  /// Asks the daemon to drain and exit.  The daemon acknowledges with
  /// a StatsResponse (its final counters) before closing.
  Expected<ServeStats> shutdown();

  /// Raw escape hatch for the hostile-protocol tests: sends \p Bytes
  /// verbatim.
  bool sendRaw(const std::vector<uint8_t> &Bytes);

  /// Reads one response frame (hostile-protocol tests).
  int readRaw(Frame &Out, std::string &Err, int IdleTimeoutMs = 0);

private:
  Expected<Frame> roundTrip(FrameType Type,
                            const std::vector<uint8_t> &Payload);

  int Fd = -1;
  FrameLimits Limits;
};

} // namespace serve
} // namespace perfplay

#endif // PERFPLAY_SERVE_PROTOCOL_H
