//===- serve/Server.cpp - The perfplay serve daemon -------------------------===//

#include "serve/Server.h"

#include "support/MappedFile.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace perfplay;
using namespace perfplay::serve;

namespace {

/// How long blocking waits (accept poll, worker connection poll) sleep
/// between checks of the stop flag.
constexpr int StopPollMs = 100;

constexpr size_t LatencyRingSize = 1024;

uint64_t nowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Eng(Opts.Pipeline),
      Cache(Opts.CacheBudgetBytes) {
  Limits.MaxFrameBytes = Opts.MaxFrameBytes;
  Workers = Opts.NumWorkers ? Opts.NumWorkers
                            : std::max(1u, std::thread::hardware_concurrency());
  LatencyRing.resize(LatencyRingSize, 0);
}

Server::~Server() { stop(); }

Expected<void> Server::start() {
  if (Started.exchange(true))
    return PipelineError(ErrorCode::ProtocolError, "server already started");

  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return PipelineError(ErrorCode::ProtocolError,
                         "bad socket path: " + Opts.SocketPath);
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ::unlink(Opts.SocketPath.c_str()); // Stale socket from a dead daemon.
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return PipelineError(ErrorCode::ProtocolError,
                         std::string("socket: ") + std::strerror(errno));
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(ListenFd, static_cast<int>(Opts.MaxQueueDepth) + 16) != 0) {
    std::string Msg = "bind/listen " + Opts.SocketPath + ": " +
                      std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return PipelineError(ErrorCode::ProtocolError, std::move(Msg));
  }

  AcceptThread = std::thread([this] { acceptLoop(); });
  WorkerThreads.reserve(Workers);
  for (unsigned I = 0; I != Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  return Expected<void>();
}

void Server::stop() {
  {
    // Under QueueMu, or a worker between popConnection()'s check and
    // its wait misses the notify and never wakes.
    MutexLock Lock(QueueMu);
    Stopping.store(true);
  }
  QueueCv.notifyAll();
  joinAll();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Opts.SocketPath.c_str());
  }
}

void Server::wait() { joinAll(); }

void Server::joinAll() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  for (std::thread &T : WorkerThreads)
    if (T.joinable())
      T.join();
  // The accept loop can queue one last connection after every worker
  // saw the queue empty and left; close it so its client sees EOF
  // instead of blocking forever.
  MutexLock Lock(QueueMu);
  for (int Fd : Queue)
    ::close(Fd);
  Queue.clear();
}

void Server::acceptLoop() {
  while (!Stopping.load()) {
    struct pollfd Pfd = {ListenFd, POLLIN, 0};
    int Rc = ::poll(&Pfd, 1, StopPollMs);
    if (Rc <= 0)
      continue; // Timeout (re-check the stop flag) or EINTR.
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;

    bool Shed = false;
    {
      MutexLock Lock(QueueMu);
      if (Queue.size() >= Opts.MaxQueueDepth)
        Shed = true;
      else
        Queue.push_back(Fd);
    }
    if (Shed) {
      // Admission control: answer with the typed overload error and
      // close instead of queueing unboundedly.
      RequestsRejected.fetch_add(1, std::memory_order_relaxed);
      std::string Err;
      writeFrame(Fd, FrameType::ErrorResponse,
                 encodeError(ErrorCode::ServerOverloaded,
                             "connection queue full; retry later"),
                 Err);
      ::close(Fd);
    } else {
      QueueCv.notifyOne();
    }
  }
}

int Server::popConnection() {
  MutexLock Lock(QueueMu);
  while (Queue.empty() && !Stopping.load())
    QueueCv.wait(QueueMu);
  if (Queue.empty())
    return -1; // Stopping and drained.
  int Fd = Queue.front();
  Queue.pop_front();
  return Fd;
}

void Server::workerLoop() {
  for (;;) {
    int Fd = popConnection();
    if (Fd < 0)
      return;
    serveConnection(Fd);
    ::close(Fd);
  }
}

void Server::serveConnection(int Fd) {
  int IdleMs = 0;
  for (;;) {
    // Wait for the next frame in StopPollMs slices so shutdown and the
    // idle timeout are both honored between requests; once bytes are
    // ready readFrame itself blocks only for the (already in-flight)
    // frame body.
    struct pollfd Pfd = {Fd, POLLIN, 0};
    int Rc = ::poll(&Pfd, 1, StopPollMs);
    if (Rc < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (Rc == 0) {
      if (Stopping.load())
        return; // Drained: between frames, nothing in flight.
      IdleMs += StopPollMs;
      if (Opts.IdleTimeoutMs > 0 && IdleMs >= Opts.IdleTimeoutMs)
        return;
      continue;
    }
    IdleMs = 0;

    Frame Request;
    std::string Err;
    int ReadRc = readFrame(Fd, Request, Limits, Err);
    if (ReadRc == 0)
      return; // Clean EOF: the client is done.
    if (ReadRc < 0) {
      // Unframable stream (oversized prefix, truncation, socket
      // error): drop the connection; the daemon keeps serving.
      ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    switch (Request.Type) {
    case FrameType::AnalyzeRequest: {
      AnalyzeRequest Req;
      if (!decodeAnalyzeRequest(Request.Payload.data(),
                                Request.Payload.size(), Req, Err)) {
        ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
        writeFrame(Fd, FrameType::ErrorResponse,
                   encodeError(ErrorCode::ProtocolError, Err), Err);
        break; // Still framable — keep the connection.
      }
      uint64_t T0 = nowMicros();
      Expected<ResultSummary> SumOr = handleAnalyze(Req);
      recordLatency(nowMicros() - T0);
      if (SumOr) {
        RequestsServed.fetch_add(1, std::memory_order_relaxed);
        writeFrame(Fd, FrameType::ResultResponse,
                   encodeResultSummary(*SumOr), Err);
      } else {
        RequestsFailed.fetch_add(1, std::memory_order_relaxed);
        writeFrame(Fd, FrameType::ErrorResponse,
                   encodeError(SumOr.error().Code, SumOr.error().Message),
                   Err);
      }
      break;
    }
    case FrameType::StatsRequest:
      writeFrame(Fd, FrameType::StatsResponse, encodeServeStats(stats()),
                 Err);
      break;
    case FrameType::ShutdownRequest:
      // Acknowledge with the final counters, then flip the stop flag.
      // Joining happens in stop()/wait() on the main thread.
      writeFrame(Fd, FrameType::StatsResponse, encodeServeStats(stats()),
                 Err);
      {
        MutexLock Lock(QueueMu); // See stop().
        Stopping.store(true);
      }
      QueueCv.notifyAll();
      return;
    default:
      ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      writeFrame(Fd, FrameType::ErrorResponse,
                 encodeError(ErrorCode::ProtocolError,
                             "unknown request type"),
                 Err);
      break;
    }
  }
}

Expected<ResultSummary> Server::handleAnalyze(const AnalyzeRequest &Req) {
  MappedFile File;
  std::string Err;
  if (!File.open(Req.Path, Err))
    return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));

  // Parse the mapped bytes (which validates them once) and run the
  // pipeline; the trace dies with this call, only its summary is kept.
  auto Analyze = [&]() -> Expected<ResultSummary> {
    Engine E = Eng; // Cheap: options + callback.
    E.options().Detect.PairMode = Req.PairMode
                                      ? PairModeKind::AllCrossThread
                                      : PairModeKind::AdjacentCrossThread;
    Expected<AnalysisSession> Session =
        E.openSessionFromBuffer(File.data(), File.size());
    if (!Session)
      return PipelineError(ErrorCode::TraceIOFailed,
                           Req.Path + ": " + Session.message());
    PipelineError RunErr;
    PipelineResult Result = Session->run(&RunErr);
    if (!RunErr.isSuccess())
      return RunErr;
    return summarizeResult(Result);
  };
  if (Req.NoCache)
    return Analyze();

  // The key is the content hash plus PairMode, the one verdict-changing
  // option the wire exposes (any nonzero value means all pairs).
  bool FromCache = false;
  Expected<ResultSummary> SumOr = Cache.get(
      {hashBytes(File.data(), File.size()), Req.PairMode ? 1 : 0}, Analyze,
      FromCache);
  if (SumOr)
    SumOr->FromResultCache = FromCache ? 1 : 0;
  return SumOr;
}

void Server::recordLatency(uint64_t Micros) {
  MutexLock Lock(LatencyMu);
  LatencyRing[LatencyNext] = Micros;
  LatencyNext = (LatencyNext + 1) % LatencyRing.size();
  LatencyCount = std::min(LatencyCount + 1, LatencyRing.size());
}

ServeStats Server::stats() const {
  ServeStats S;
  S.RequestsServed = RequestsServed.load(std::memory_order_relaxed);
  S.RequestsFailed = RequestsFailed.load(std::memory_order_relaxed);
  S.ProtocolErrors = ProtocolErrors.load(std::memory_order_relaxed);
  S.RequestsRejected = RequestsRejected.load(std::memory_order_relaxed);
  Cache.fillStats(S);
  {
    MutexLock Lock(QueueMu);
    S.QueueDepth = Queue.size();
  }
  {
    MutexLock Lock(LatencyMu);
    size_t N = LatencyCount;
    if (N > 0) {
      std::vector<uint64_t> Sorted(LatencyRing.begin(),
                                   LatencyRing.begin() +
                                       static_cast<long>(N));
      std::sort(Sorted.begin(), Sorted.end());
      S.P50Micros = Sorted[N / 2];
      S.P99Micros = Sorted[std::min(N - 1, (N * 99) / 100)];
    }
  }
  return S;
}
