//===- tests/ServeTest.cpp - serve daemon integration tests -----------------===//
//
// End-to-end tests of the `perfplay serve` daemon (src/serve/): the
// daemon runs in-process, real clients speak the wire protocol over a
// unix-domain socket, and every assertion is on observable protocol
// behavior — response parity with Engine::analyzeTrace, cache-hit
// provenance, eviction under a tiny budget, concurrent clients sharing
// one pipeline run, uncached errors, and the shutdown handshake.  Runs
// under the plain, ASan, and TSan lanes.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "serve/Server.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace perfplay;
using namespace perfplay::serve;

namespace {

/// Unique socket path per test (short — sun_path is ~108 bytes).
std::string socketPath(const char *Name) {
  return testing::TempDir() + "pp_" + Name + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A small contended trace; \p Salt varies the written values so
/// distinct salts produce distinct file contents (distinct hashes).
Trace saltedTrace(unsigned Salt, unsigned Rounds = 6) {
  TraceBuilder B;
  LockId L = B.addLock("serve-lock");
  CodeSiteId Site = B.addSite("serve.cc", "worker", 1, 4);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  for (unsigned R = 0; R != Rounds; ++R)
    for (ThreadId Id : {T0, T1}) {
      B.compute(Id, 3);
      B.beginCs(Id, L, Site);
      if (R % 2)
        B.read(Id, 5, 0);
      else
        B.write(Id, 7 + (R % 3), Salt + R);
      B.endCs(Id);
    }
  return B.finish();
}

/// Writes \p Tr to a temp file in the v3 format and returns the
/// path.
std::string writeTraceFile(const Trace &Tr, const char *Name) {
  std::string Path =
      testing::TempDir() + "pp_serve_" + Name + "_" +
      std::to_string(::getpid()) + ".v3trace";
  std::string Err;
  EXPECT_TRUE(saveTrace(Tr, Path, Err, TraceFormat::V3)) << Err;
  return Path;
}

/// Starts a daemon over \p Opts and fails the test if it can't.
void startOrFail(Server &S) {
  Expected<void> Ok = S.start();
  ASSERT_TRUE(Ok.ok()) << Ok.message();
}

ServerOptions baseOptions(const std::string &Socket) {
  ServerOptions Opts;
  Opts.SocketPath = Socket;
  Opts.NumWorkers = 2;
  return Opts;
}

} // namespace

// A trace analyzed through the daemon must yield bit-identical
// verdicts/counters to Engine::analyzeTrace on the same file — the
// daemon adds caching and transport, never different answers.
TEST(ServeTest, DaemonEngineParity) {
  std::string Path = writeTraceFile(saltedTrace(1), "parity");
  Server Daemon(baseOptions(socketPath("parity")));
  startOrFail(Daemon);

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Daemon.options().SocketPath).ok());
  AnalyzeRequest Req;
  Req.Path = Path;
  Expected<ResultSummary> DaemonSum = Client.analyze(Req);
  ASSERT_TRUE(DaemonSum.ok()) << DaemonSum.message();

  // The daemon's defaults: PipelineOptions with PairMode resolved from
  // the request (0 = adjacent, the session default).
  Engine E;
  Expected<Trace> TrOr = readTraceFile(Path);
  ASSERT_TRUE(TrOr.ok());
  Expected<PipelineResult> Direct = E.analyzeTrace(std::move(*TrOr));
  ASSERT_TRUE(Direct.ok()) << Direct.message();
  ResultSummary DirectSum = summarizeResult(*Direct);

  EXPECT_TRUE(DaemonSum->sameVerdicts(DirectSum));
  EXPECT_EQ(DaemonSum->FromResultCache, 0);

  // All-pairs mode goes through the same parity check.
  Req.PairMode = 1;
  Expected<ResultSummary> DaemonAll = Client.analyze(Req);
  ASSERT_TRUE(DaemonAll.ok());
  Engine EAll;
  EAll.options().Detect.PairMode = PairModeKind::AllCrossThread;
  Expected<Trace> TrOr2 = readTraceFile(Path);
  ASSERT_TRUE(TrOr2.ok());
  Expected<PipelineResult> DirectAll = EAll.analyzeTrace(std::move(*TrOr2));
  ASSERT_TRUE(DirectAll.ok());
  EXPECT_TRUE(DaemonAll->sameVerdicts(summarizeResult(*DirectAll)));
  // The two modes differ on this trace, so parity is not vacuous.
  EXPECT_FALSE(DaemonAll->sameVerdicts(DirectSum));

  std::remove(Path.c_str());
}

// The second request for the same content hash must not re-run the
// pipeline: the response is served from the result cache and the
// daemon's counters prove no second miss happened.
TEST(ServeTest, SecondRequestServedFromCache) {
  std::string Path = writeTraceFile(saltedTrace(2), "cachehit");
  Server Daemon(baseOptions(socketPath("cachehit")));
  startOrFail(Daemon);

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Daemon.options().SocketPath).ok());
  AnalyzeRequest Req;
  Req.Path = Path;

  Expected<ResultSummary> Cold = Client.analyze(Req);
  ASSERT_TRUE(Cold.ok());
  EXPECT_EQ(Cold->FromResultCache, 0);

  Expected<ResultSummary> Warm = Client.analyze(Req);
  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(Warm->FromResultCache, 1);
  EXPECT_TRUE(Warm->sameVerdicts(*Cold));

  // Same content under a different path: the content hash, not the
  // path, keys the cache.
  std::string Copy = Path + ".copy";
  {
    Trace Tr = saltedTrace(2);
    std::string Err;
    ASSERT_TRUE(saveTrace(Tr, Copy, Err, TraceFormat::V3)) << Err;
  }
  Expected<ResultSummary> Aliased = Client.analyze(
      [&] { AnalyzeRequest R; R.Path = Copy; return R; }());
  ASSERT_TRUE(Aliased.ok());
  EXPECT_EQ(Aliased->FromResultCache, 1);

  Expected<ServeStats> Stats = Client.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->ResultCacheMisses, 1u); // exactly the cold run
  EXPECT_EQ(Stats->ResultCacheHits, 2u);
  EXPECT_EQ(Stats->RequestsServed, 3u);
  EXPECT_EQ(Stats->RequestsFailed, 0u);

  std::remove(Path.c_str());
  std::remove(Copy.c_str());
}

// --no-cache requests bypass the cache in both directions: they are
// served cold, leave no entries and move no cache counter (the bench's
// cold-path control).
TEST(ServeTest, NoCacheBypassesCaches) {
  std::string Path = writeTraceFile(saltedTrace(3), "nocache");
  Server Daemon(baseOptions(socketPath("nocache")));
  startOrFail(Daemon);

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Daemon.options().SocketPath).ok());
  AnalyzeRequest Req;
  Req.Path = Path;
  Req.NoCache = 1;
  for (int I = 0; I != 2; ++I) {
    Expected<ResultSummary> Sum = Client.analyze(Req);
    ASSERT_TRUE(Sum.ok());
    EXPECT_EQ(Sum->FromResultCache, 0);
  }
  Expected<ServeStats> Stats = Client.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CachedResults, 0u);
  EXPECT_EQ(Stats->ResultCacheMisses, 0u); // bypass is not a miss
  EXPECT_EQ(Stats->ResultCacheHits, 0u);

  std::remove(Path.c_str());
}

// Under a budget smaller than one result the daemon still answers
// correctly — the cache degrades to pass-through and evicts instead of
// blowing the bound.
TEST(ServeTest, EvictionUnderTinyBudget) {
  std::string PathA = writeTraceFile(saltedTrace(4), "evictA");
  std::string PathB = writeTraceFile(saltedTrace(5), "evictB");
  ServerOptions Opts = baseOptions(socketPath("evict"));
  Opts.CacheBudgetBytes = 64; // smaller than any result
  Server Daemon(Opts);
  startOrFail(Daemon);

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Daemon.options().SocketPath).ok());
  ResultSummary First;
  for (int Round = 0; Round != 2; ++Round)
    for (const std::string &P : {PathA, PathB}) {
      AnalyzeRequest Req;
      Req.Path = P;
      Expected<ResultSummary> Sum = Client.analyze(Req);
      ASSERT_TRUE(Sum.ok()) << Sum.message();
      if (Round == 0 && P == PathA)
        First = *Sum;
      if (P == PathA)
        EXPECT_TRUE(Sum->sameVerdicts(First));
    }

  Expected<ServeStats> Stats = Client.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_GT(Stats->CacheEvictions, 0u);
  EXPECT_LE(Stats->CacheBytes, 64u);
  EXPECT_EQ(Stats->RequestsFailed, 0u);

  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

// Concurrent clients over distinct connections: every response must be
// correct for its own request (no cross-request bleed), under enough
// parallelism to exercise the queue and both workers.
TEST(ServeTest, ConcurrentClients) {
  constexpr unsigned NumClients = 6;
  constexpr unsigned Iterations = 4;
  std::vector<std::string> Paths;
  std::vector<ResultSummary> Expected_;
  Engine E;
  for (unsigned I = 0; I != NumClients; ++I) {
    Trace Tr = saltedTrace(10 + I);
    Paths.push_back(
        writeTraceFile(Tr, ("conc" + std::to_string(I)).c_str()));
    Expected<PipelineResult> R = E.analyzeTrace(std::move(Tr));
    ASSERT_TRUE(R.ok());
    Expected_.push_back(summarizeResult(*R));
  }

  Server Daemon(baseOptions(socketPath("conc")));
  startOrFail(Daemon);

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != NumClients; ++I)
    Threads.emplace_back([&, I] {
      for (unsigned Iter = 0; Iter != Iterations; ++Iter) {
        ServeClient Client;
        if (!Client.connect(Daemon.options().SocketPath).ok()) {
          Failures.fetch_add(1);
          return;
        }
        AnalyzeRequest Req;
        Req.Path = Paths[I];
        Expected<ResultSummary> Sum = Client.analyze(Req);
        if (!Sum.ok() || !Sum->sameVerdicts(Expected_[I]))
          Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  Expected<ServeStats> Stats = [&] {
    ServeClient Client;
    EXPECT_TRUE(Client.connect(Daemon.options().SocketPath).ok());
    return Client.stats();
  }();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->RequestsServed, NumClients * Iterations);
  // Each distinct content analyzed exactly once despite the hammering.
  EXPECT_EQ(Stats->ResultCacheMisses, NumClients);

  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

// Clients that ask for the same uncached trace at the same moment
// share one pipeline run: the first claims the answer, the rest wait
// for it and count as hits.
TEST(ServeTest, ConcurrentIdenticalMissesRunPipelineOnce) {
  constexpr unsigned NumClients = 4;
  Trace Tr = saltedTrace(20, /*Rounds=*/1500);
  ASSERT_GT(Tr.numEvents(), 5000u);
  std::string Path = writeTraceFile(Tr, "samemiss");
  ServerOptions Opts = baseOptions(socketPath("samemiss"));
  Opts.NumWorkers = NumClients; // every client is served at once
  Server Daemon(Opts);
  startOrFail(Daemon);

  std::vector<ServeClient> Clients(NumClients);
  for (ServeClient &C : Clients)
    ASSERT_TRUE(C.connect(Daemon.options().SocketPath).ok());

  // A spin barrier: every client sends as soon as the last one is ready.
  std::atomic<unsigned> Arrived{0};
  std::vector<Expected<ResultSummary>> Sums(
      NumClients, PipelineError(ErrorCode::ProtocolError, "not sent"));
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != NumClients; ++I)
    Threads.emplace_back([&, I] {
      Arrived.fetch_add(1);
      while (Arrived.load() != NumClients)
        std::this_thread::yield();
      AnalyzeRequest Req;
      Req.Path = Path;
      Sums[I] = Clients[I].analyze(Req);
    });
  for (std::thread &T : Threads)
    T.join();

  for (const Expected<ResultSummary> &Sum : Sums) {
    ASSERT_TRUE(Sum.ok()) << Sum.message();
    EXPECT_TRUE(Sum->sameVerdicts(*Sums[0]));
  }
  Expected<ServeStats> Stats = Clients[0].stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->ResultCacheMisses, 1u) << "the pipeline ran more than once";
  EXPECT_EQ(Stats->ResultCacheHits, NumClients - 1);

  std::remove(Path.c_str());
}

// A trace that maps but does not parse fails with TraceIOFailed every
// time: errors are never cached, so the second request runs again.
TEST(ServeTest, CorruptTraceErrorsAreNotCached) {
  std::string Path = writeTraceFile(saltedTrace(21), "corrupt");
  {
    // Keep the v3 magic but cut the file in half: mappable, unparsable.
    FILE *F = std::fopen(Path.c_str(), "rb");
    ASSERT_NE(F, nullptr);
    std::vector<char> Bytes(1 << 16);
    Bytes.resize(std::fread(Bytes.data(), 1, Bytes.size(), F));
    std::fclose(F);
    ASSERT_GT(Bytes.size(), 16u);
    F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fwrite(Bytes.data(), 1, Bytes.size() / 2, F);
    std::fclose(F);
  }
  Server Daemon(baseOptions(socketPath("corrupt")));
  startOrFail(Daemon);

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Daemon.options().SocketPath).ok());
  AnalyzeRequest Req;
  Req.Path = Path;
  for (int I = 0; I != 2; ++I) {
    Expected<ResultSummary> Sum = Client.analyze(Req);
    ASSERT_FALSE(Sum.ok());
    EXPECT_EQ(Sum.code(), ErrorCode::TraceIOFailed) << Sum.message();
  }
  Expected<ServeStats> Stats = Client.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CachedResults, 0u);
  EXPECT_EQ(Stats->ResultCacheMisses, 2u);
  EXPECT_EQ(Stats->ResultCacheHits, 0u);
  EXPECT_EQ(Stats->RequestsFailed, 2u);

  std::remove(Path.c_str());
}

// The shutdown handshake: the daemon acks with its final counters,
// stops accepting, and start/stop/wait stay clean.  A failed analyze
// (missing file) must come back as the typed TraceIOFailed — and count
// as a failed request, not a protocol error.
TEST(ServeTest, ShutdownHandshakeAndTypedErrors) {
  Server Daemon(baseOptions(socketPath("shutdown")));
  startOrFail(Daemon);

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Daemon.options().SocketPath).ok());

  AnalyzeRequest Req;
  Req.Path = testing::TempDir() + "pp_serve_does_not_exist.btrace";
  Expected<ResultSummary> Missing = Client.analyze(Req);
  ASSERT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.code(), ErrorCode::TraceIOFailed);

  Expected<ServeStats> Final = Client.shutdown();
  ASSERT_TRUE(Final.ok());
  EXPECT_EQ(Final->RequestsFailed, 1u);
  EXPECT_EQ(Final->ProtocolErrors, 0u);

  Daemon.stop();
  EXPECT_TRUE(Daemon.stopping());
}
