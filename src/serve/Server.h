//===- serve/Server.h - The perfplay serve daemon ----------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident analysis daemon behind `perfplay serve`: a warm Engine
/// plus the shared ResultCache, multiplexed over a unix-domain socket.
/// A request maps its trace, content-hashes it, and either takes the
/// cached answer or parses + analyzes the bytes once (concurrent
/// requests for the same answer wait for that one run); a --no-cache
/// request skips the hash and the cache.  No parsed Trace outlives
/// its request.
///
/// Structure:
///  * one accept thread owns the listen socket and feeds accepted
///    connections into a bounded queue — admission control: when the
///    queue is full the connection is answered with
///    ErrorCode::ServerOverloaded and closed instead of queued, so
///    load shedding is explicit and a burst can't grow memory;
///  * N worker threads pop connections and serve frames until the peer
///    closes (or misbehaves: an unframable stream drops the
///    connection, a merely malformed request gets a typed Error frame
///    and the connection lives on);
///  * fair-share scheduling reuses the batch math — every request's
///    detection runs with Engine::cappedDetectThreads(requested,
///    NumWorkers) threads, so workers x detect-threads never exceeds
///    the machine and one huge trace can't starve the rest.
///
/// Locking (every serve lock is a leaf — see docs/ARCHITECTURE.md):
///  * QueueMu (Mutex) + QueueCv guard the connection queue;
///  * LatencyMu (Mutex) guards the recent-latency ring (p50/p99);
///  * the ResultCache's own Mu guards the cache.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SERVE_SERVER_H
#define PERFPLAY_SERVE_SERVER_H

#include "core/Engine.h"
#include "serve/Protocol.h"
#include "serve/ResultCache.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

namespace perfplay {
namespace serve {

/// Daemon configuration.
struct ServerOptions {
  /// Filesystem path of the unix-domain listen socket.  A stale socket
  /// file is unlinked on start.
  std::string SocketPath;
  /// Worker threads serving connections (0 = one per hardware thread).
  unsigned NumWorkers = 0;
  /// Byte budget of the result cache (0 keeps no answers; the daemon
  /// still serves correctly, just cold).
  size_t CacheBudgetBytes = 64u << 20;
  /// Per-frame allocation bound (Protocol.h FrameLimits).
  uint32_t MaxFrameBytes = 1u << 20;
  /// Accepted connections waiting for a worker beyond which new
  /// connections are shed with ServerOverloaded.
  unsigned MaxQueueDepth = 64;
  /// Drop a connection idle for this long between frames
  /// (milliseconds; 0 = never).
  int IdleTimeoutMs = 0;
  /// Pipeline defaults for every analysis.  Detect.NumThreads is the
  /// *requested* budget; the daemon caps it per-worker
  /// (cappedDetectThreads) at start.
  PipelineOptions Pipeline;
};

/// The daemon.  start() spawns the accept + worker threads and
/// returns; wait() blocks until a ShutdownRequest (or stop()) drains
/// the daemon.  start/stop/wait are main-thread calls — the daemon's
/// own threads never touch them (a ShutdownRequest only flips the
/// stop flag; joining happens in stop()/wait()).
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and spawns the threads.  Fails with
  /// ErrorCode::ProtocolError when the socket can't be created.
  Expected<void> start() EXCLUDES(QueueMu);

  /// Drains and joins: stops accepting, wakes every worker, lets
  /// in-flight requests finish, closes idle connections, joins all
  /// threads, and unlinks the socket.  Idempotent.
  void stop() EXCLUDES(QueueMu);

  /// Blocks until the daemon stopped (ShutdownRequest or stop()).
  void wait();

  /// True once a ShutdownRequest (or stop()) was seen.
  bool stopping() const { return Stopping.load(); }

  /// Point-in-time counters (same data the STATS frame carries).
  ServeStats stats() const EXCLUDES(QueueMu, LatencyMu);

  const ServerOptions &options() const { return Opts; }

  /// The resolved worker-thread count (NumWorkers, or one per hardware
  /// thread when 0 was requested).
  unsigned workers() const { return Workers; }

  /// The per-request detection thread budget the daemon resolved at
  /// construction (cappedDetectThreads over the worker count).
  unsigned detectThreadsPerRequest() const { return DetectThreads; }

private:
  void acceptLoop() EXCLUDES(QueueMu);
  void workerLoop() EXCLUDES(QueueMu);

  /// Serves one connection until EOF, protocol failure, idle timeout,
  /// or shutdown.
  void serveConnection(int Fd);

  /// Handles one Analyze frame; returns the response summary or the
  /// typed error to send back.
  Expected<ResultSummary> handleAnalyze(const AnalyzeRequest &Req);

  void recordLatency(uint64_t Micros) EXCLUDES(LatencyMu);

  /// Pops the next queued connection; -1 when stopping with an empty
  /// queue.
  int popConnection() EXCLUDES(QueueMu);

  /// Joins every thread, then closes connections queued too late for
  /// any worker to serve.
  void joinAll() EXCLUDES(QueueMu);

  ServerOptions Opts;
  Engine Eng;
  ResultCache Cache;
  FrameLimits Limits;
  unsigned Workers = 1;
  unsigned DetectThreads = 1;
  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Started{false};

  std::thread AcceptThread;
  std::vector<std::thread> WorkerThreads;

  mutable Mutex QueueMu; // mutable: stats() is logically const
  CondVar QueueCv;
  std::deque<int> Queue GUARDED_BY(QueueMu);

  mutable Mutex LatencyMu;
  /// Fixed-size ring of recent request latencies (microseconds);
  /// p50/p99 are computed over whatever it currently holds.
  std::vector<uint64_t> LatencyRing GUARDED_BY(LatencyMu);
  size_t LatencyNext GUARDED_BY(LatencyMu) = 0;
  size_t LatencyCount GUARDED_BY(LatencyMu) = 0;

  std::atomic<uint64_t> RequestsServed{0};
  std::atomic<uint64_t> RequestsFailed{0};
  std::atomic<uint64_t> ProtocolErrors{0};
  std::atomic<uint64_t> RequestsRejected{0};
};

} // namespace serve
} // namespace perfplay

#endif // PERFPLAY_SERVE_SERVER_H
