//===- tests/ConcurrencyStressTest.cpp - concurrency stress lanes ----------===//
//
// Dedicated stress tests for every concurrent subsystem, built to run
// under three CI lanes: plain (correctness under contention),
// ASan/UBSan, and ThreadSanitizer (the dynamic complement of the
// clang -Wthread-safety static gate).  Each test maximizes real
// interleavings: more workers than cores, tiny work items, shared hot
// keys, and repeated construct/destruct cycles.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "detect/Detector.h"
#include "record/Preload.h"
#include "runtime/Instrument.h"
#include "sim/Replayer.h"
#include "serve/Server.h"
#include "serve/ResultCache.h"
#include "support/ThreadPool.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "transform/Topology.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace perfplay;

namespace {

/// A small trace whose hot-lock sections repeat a handful of access
/// patterns across \p NumThreads threads.
Trace hotKeyTrace(unsigned NumThreads, unsigned Rounds) {
  TraceBuilder B;
  LockId Hot = B.addLock("hot");
  CodeSiteId Site = B.addSite("stress.cc", "hot", 1, 9);
  std::vector<ThreadId> Ids;
  for (unsigned T = 0; T != NumThreads; ++T)
    Ids.push_back(B.addThread());
  for (unsigned Round = 0; Round != Rounds; ++Round)
    for (unsigned T = 0; T != NumThreads; ++T) {
      ThreadId Id = Ids[T];
      B.compute(Id, 5);
      B.beginCs(Id, Hot, Site);
      // Only three distinct section shapes.
      switch (Round % 3) {
      case 0:
        B.write(Id, 1, 7); // Redundant store everywhere.
        break;
      case 1:
        B.read(Id, 2, 0); // Read-only.
        break;
      default:
        B.write(Id, 3, Round); // Conflicting stores.
        break;
      }
      B.endCs(Id);
    }
  return B.finish();
}

/// Finishes \p R, failing the test on a recording error.
Trace finishOk(Recorder &R) {
  Expected<Trace> Tr = R.finish();
  EXPECT_TRUE(Tr.ok()) << Tr.message();
  return Tr.ok() ? std::move(*Tr) : Trace();
}

/// A tiny two-thread trace for batch fan-out tests; \p Salt varies the
/// written values so traces are distinguishable.
Trace tinyTrace(unsigned Salt) {
  TraceBuilder B;
  LockId L = B.addLock("l");
  ThreadId A = B.addThread();
  ThreadId C = B.addThread();
  for (ThreadId Id : {A, C}) {
    B.compute(Id, 3 + Salt % 5);
    B.beginCs(Id, L);
    B.write(Id, 1, Salt + Id);
    B.endCs(Id);
  }
  return B.finish();
}

} // namespace

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

// Saturation: far more workers than cores, repeated one-shot calls,
// every item must run exactly once per call.  Exercises thread start
// and join racing the shared item counter.
TEST(ConcurrencyStressTest, ThreadPoolSaturation) {
  constexpr unsigned Workers = 8;
  constexpr size_t Items = 4096;
  constexpr int Jobs = 25;
  std::vector<std::atomic<uint32_t>> Ran(Items);
  for (int J = 0; J != Jobs; ++J) {
    for (auto &Flag : Ran)
      Flag.store(0, std::memory_order_relaxed);
    parallelFor(Workers, Items, [&](size_t I) {
      Ran[I].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t I = 0; I != Items; ++I)
      ASSERT_EQ(Ran[I].load(std::memory_order_relaxed), 1u)
          << "job " << J << " item " << I;
  }
}

//===----------------------------------------------------------------------===//
// Engine batch fan-out / streaming consumer serialization
//===----------------------------------------------------------------------===//

// The streaming consumer contract: invocations are serialized (no two
// overlap), every index is delivered exactly once, and the aggregate
// matches the non-streaming batch no matter the completion order.
TEST(ConcurrencyStressTest, StreamingBatchConsumerSerialized) {
  constexpr size_t NumTraces = 24;
  std::vector<std::string> Paths;
  for (unsigned I = 0; I != NumTraces; ++I) {
    Paths.push_back(testing::TempDir() + "pp_stress_stream_" +
                    std::to_string(::getpid()) + "_" + std::to_string(I) +
                    ".v3trace");
    std::string Err;
    ASSERT_TRUE(saveTrace(tinyTrace(I), Paths.back(), Err, TraceFormat::V3))
        << Err;
  }

  Engine E;
  std::atomic<int> InConsumer{0};
  std::atomic<int> MaxOverlap{0};
  std::vector<std::atomic<uint32_t>> Delivered(NumTraces);
  AggregatedReport Streamed = E.analyzeBatchFilesStreaming(
      Paths,
      [&](size_t Index, Expected<PipelineResult> Result) {
        int Nested = InConsumer.fetch_add(1) + 1;
        int Seen = MaxOverlap.load();
        while (Nested > Seen && !MaxOverlap.compare_exchange_weak(Seen, Nested))
          ;
        ASSERT_LT(Index, NumTraces);
        Delivered[Index].fetch_add(1);
        EXPECT_TRUE(Result.ok()) << Index;
        InConsumer.fetch_sub(1);
      },
      /*NumThreads=*/8);

  EXPECT_EQ(MaxOverlap.load(), 1) << "consumer invocations overlapped";
  for (size_t I = 0; I != NumTraces; ++I)
    EXPECT_EQ(Delivered[I].load(), 1u) << I;
  EXPECT_EQ(Streamed.NumFailed, 0u);

  // Parity with the materializing batch.
  std::vector<Trace> Again;
  for (unsigned I = 0; I != NumTraces; ++I)
    Again.push_back(tinyTrace(I));
  AggregatedReport Batch = aggregateBatch(E.analyzeBatch(std::move(Again), 8));
  EXPECT_EQ(Batch.NumFailed, Streamed.NumFailed);
  EXPECT_EQ(Batch.NumRuns, Streamed.NumRuns);
  EXPECT_EQ(Batch.Groups.size(), Streamed.Groups.size());
  for (const std::string &Path : Paths)
    std::remove(Path.c_str());
}

// Progress callbacks funnel through the same batch mutex as delivery;
// a reentrancy-free callback observing serialized invocations from
// every worker must never overlap with itself or with the consumer.
TEST(ConcurrencyStressTest, BatchProgressCallbackSerialized) {
  constexpr size_t NumTraces = 16;
  std::vector<Trace> Traces;
  for (unsigned I = 0; I != NumTraces; ++I)
    Traces.push_back(tinyTrace(I));

  Engine E;
  std::atomic<int> InCallback{0};
  std::atomic<bool> Overlapped{false};
  std::atomic<size_t> Events{0};
  E.setProgressCallback([&](const StageEvent &) {
    if (InCallback.fetch_add(1) != 0)
      Overlapped.store(true);
    Events.fetch_add(1);
    InCallback.fetch_sub(1);
  });
  std::vector<Expected<PipelineResult>> Results =
      E.analyzeBatch(std::move(Traces), 8);
  EXPECT_FALSE(Overlapped.load());
  EXPECT_GT(Events.load(), NumTraces); // several stages per trace
  for (const auto &R : Results)
    EXPECT_TRUE(R.ok());
}

//===----------------------------------------------------------------------===//
// Cross-thread session reuse
//===----------------------------------------------------------------------===//

// Sessions are externally synchronized: sequential use from different
// threads is legal whenever the handoff synchronizes (here: thread
// join).  Stage caches filled on one thread must serve cache hits on
// the next with no invented races under TSan.
TEST(ConcurrencyStressTest, CrossThreadSessionHandoff) {
  Engine E;
  AnalysisSession Session = E.openSession(hotKeyTrace(4, 10));

  std::thread Recorder([&] {
    Expected<void> Ok = Session.ensureRecorded();
    ASSERT_TRUE(Ok.ok());
  });
  Recorder.join();

  std::thread Detector([&] {
    Expected<const DetectResult &> Detected = Session.detect();
    ASSERT_TRUE(Detected.ok());
    EXPECT_GT(Detected->Counts.total(), 0u);
  });
  Detector.join();

  // Back on the main thread: everything is memoized, and replays fill
  // the LRU cache that the next thread then reads.
  Expected<const ReplayResult &> Orig = Session.replay(ScheduleKind::ElscS);
  ASSERT_TRUE(Orig.ok());

  std::thread Reporter([&] {
    Expected<const PerfDebugReport &> Report = Session.report();
    ASSERT_TRUE(Report.ok());
    EXPECT_EQ(Session.cachedReplayCount(), 2u); // original + transformed
  });
  Reporter.join();
}

//===----------------------------------------------------------------------===//
// Detection
//===----------------------------------------------------------------------===//

// Serve workers and batch analysis run detection and RULE 1 on many
// threads at once; the reversed replay keeps per-thread scratch slots.
// Every thread must see exactly the serial verdicts and edges.
TEST(ConcurrencyStressTest, ConcurrentDetectMatchesSerial) {
  constexpr unsigned Workers = 8;
  Trace Tr = generateWorkload(makeMysql(4, 2.0));
  recordGrantSchedule(Tr, 3);
  const CsIndex Index = CsIndex::build(Tr);

  struct Outcome {
    DetectResult Detect;
    std::vector<TopologyEdge> Edges;
  };
  auto Run = [&] {
    Outcome Out;
    Out.Detect = detectUlcps(Tr, Index);
    Out.Edges = buildTopology(Tr, Index).edges();
    return Out;
  };
  const Outcome Serial = Run();
  ASSERT_GT(Serial.Detect.Counts.Benign, 0u) << "no pair reaches replay";
  ASSERT_GT(Serial.Detect.Counts.TrueContention, 0u);

  std::vector<Outcome> Seen(Workers);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != Workers; ++W)
    Threads.emplace_back([&, W] {
      // Start together so the replays overlap.
      Ready.fetch_add(1);
      while (Ready.load() != Workers)
        std::this_thread::yield();
      Seen[W] = Run();
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned W = 0; W != Workers; ++W) {
    SCOPED_TRACE("worker " + std::to_string(W));
    const DetectResult &Got = Seen[W].Detect;
    ASSERT_EQ(Got.Pairs.size(), Serial.Detect.Pairs.size());
    for (size_t I = 0; I != Got.Pairs.size(); ++I) {
      const UlcpPair &G = Got.Pairs[I];
      const UlcpPair &S = Serial.Detect.Pairs[I];
      ASSERT_TRUE(G.First == S.First && G.Second == S.Second &&
                  G.Kind == S.Kind)
          << "pair " << I;
    }
    EXPECT_EQ(Got.Counts.Benign, Serial.Detect.Counts.Benign);
    EXPECT_EQ(Got.Counts.TrueContention,
              Serial.Detect.Counts.TrueContention);
    EXPECT_EQ(Seen[W].Edges, Serial.Edges);
  }
}

//===----------------------------------------------------------------------===//
// Recorder
//===----------------------------------------------------------------------===//

// Threads keep registering (growing the runtime's thread registry)
// while already-registered threads record through their rings at full
// speed and append to the mutex's grant list; the grant schedule must
// still hold every section exactly once.
TEST(ConcurrencyStressTest, RecorderConcurrentRegistrationAndLogging) {
  constexpr unsigned NumThreads = 8;
  constexpr int EventsPerThread = 400;

  Recorder R;
  RecordingMutex Mu(R, "stress->mutex");
  SharedVar<uint64_t> Counter(R, "stress->counter");

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&] {
      // Registration itself races against every other thread's
      // registration and logging.
      ThreadId Tid = R.registerThread();
      for (int I = 0; I != EventsPerThread; ++I) {
        RecordedSection Guard(Mu, Tid);
        uint64_t V = Counter.load(Tid);
        Counter.store(Tid, V + 1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  Trace Tr = finishOk(R);
  ASSERT_EQ(Tr.Threads.size(), NumThreads);
  std::string Err = Tr.validate();
  EXPECT_TRUE(Err.empty()) << Err;
  // Every section acquired the one lock: the grant schedule must hold
  // every critical section of every thread.
  ASSERT_EQ(Tr.LockSchedule.size(), 1u);
  EXPECT_EQ(Tr.LockSchedule[0].size(),
            static_cast<size_t>(NumThreads) * EventsPerThread);
}

//===----------------------------------------------------------------------===//
// serve::ResultCache (src/serve/ResultCache.h)
//===----------------------------------------------------------------------===//

namespace {

/// The answer a test Compute produces for key \p K: distinct per key,
/// so a response for the wrong key is visible.
serve::ResultSummary keySummary(const serve::ResultCache::Key &K) {
  serve::ResultSummary Sum;
  Sum.NullLock = K.first;
  Sum.ReadRead = K.second;
  return Sum;
}

} // namespace

// Exactly-once compute per key: N threads hammering the same few keys
// must run Compute once per key, with every other call served by a
// ready slot or by waiting on the in-flight one, never by a second run.
TEST(ConcurrencyStressTest, ResultCacheExactlyOnceCompute) {
  constexpr unsigned NumKeys = 4;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iterations = 50;

  serve::ResultCache Cache(/*BudgetBytes=*/64u << 20);
  std::atomic<unsigned> Computes{0};
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != Iterations; ++I) {
        serve::ResultCache::Key K{(T + I) % NumKeys, 0};
        bool FromCache = false;
        Expected<serve::ResultSummary> Sum = Cache.get(
            K,
            [&] {
              Computes.fetch_add(1);
              // Hold the slot in flight long enough for others to wait.
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              return Expected<serve::ResultSummary>(keySummary(K));
            },
            FromCache);
        if (!Sum.ok() || !Sum->sameVerdicts(keySummary(K)))
          Failures.fetch_add(1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Computes.load(), NumKeys) << "a key was computed more than once";

  serve::ServeStats S;
  Cache.fillStats(S);
  EXPECT_EQ(S.ResultCacheMisses, NumKeys);
  EXPECT_EQ(S.ResultCacheHits + S.ResultCacheMisses,
            static_cast<uint64_t>(NumThreads) * Iterations);
  EXPECT_EQ(S.CachedResults, NumKeys);
}

// Concurrent hit/miss/evict under a budget that fits about two slots:
// every call still returns its own key's answer (or the one injected
// error), the byte bound holds, eviction counters move, no in-flight
// slot is evicted (two computes of one key never overlap), and a
// Compute that fails once is retried by a waiter instead of leaving
// the others hanging.  Under TSan this is the lock-discipline proof
// for the cache's one mutex.
TEST(ConcurrencyStressTest, ResultCacheEvictionChurn) {
  constexpr unsigned NumKeys = 6;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iterations = 30;

  // What one ready slot costs, read off a one-entry cache.
  size_t SlotBytes = 0;
  {
    serve::ResultCache Probe(/*BudgetBytes=*/1u << 20);
    bool FromCache = false;
    ASSERT_TRUE(Probe
                    .get({0, 0},
                         [] {
                           return Expected<serve::ResultSummary>(
                               serve::ResultSummary());
                         },
                         FromCache)
                    .ok());
    serve::ServeStats S;
    Probe.fillStats(S);
    SlotBytes = S.CacheBytes;
    ASSERT_GT(SlotBytes, 0u);
  }
  const size_t Budget = 2 * SlotBytes + SlotBytes / 2;

  serve::ResultCache Cache(Budget);
  std::atomic<unsigned> Running[NumKeys] = {};
  std::atomic<bool> FailNext{true};
  std::atomic<unsigned> Errors{0};
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != Iterations; ++I) {
        unsigned Idx = (T * 3 + I) % NumKeys;
        serve::ResultCache::Key K{Idx, 1};
        bool FromCache = false;
        Expected<serve::ResultSummary> Sum = Cache.get(
            K,
            [&]() -> Expected<serve::ResultSummary> {
              if (Running[Idx].fetch_add(1) != 0)
                Failures.fetch_add(1); // An in-flight slot went missing.
              std::this_thread::sleep_for(std::chrono::microseconds(100));
              bool Fail = Idx == 0 && FailNext.exchange(false);
              Running[Idx].fetch_sub(1);
              if (Fail)
                return PipelineError(ErrorCode::TraceIOFailed, "injected");
              return keySummary(K);
            },
            FromCache);
        if (!Sum.ok())
          Errors.fetch_add(1);
        else if (!Sum->sameVerdicts(keySummary(K)))
          Failures.fetch_add(1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Errors.load(), 1u) << "the injected failure reached a waiter";
  serve::ServeStats S;
  Cache.fillStats(S);
  EXPECT_GT(S.CacheEvictions, 0u);
  EXPECT_LE(S.CacheBytes, Budget);
  EXPECT_EQ(S.ResultCacheHits + S.ResultCacheMisses,
            static_cast<uint64_t>(NumThreads) * Iterations);
}

//===----------------------------------------------------------------------===//
// serve::Server shutdown drain
//===----------------------------------------------------------------------===//

namespace {

/// Writes tinyTrace(Salt) to a temp v3 file.
std::string tinyTraceFile(unsigned Salt) {
  std::string Path = testing::TempDir() + "pp_drain_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(Salt) + ".v3trace";
  std::string Err;
  EXPECT_TRUE(saveTrace(tinyTrace(Salt), Path, Err, TraceFormat::V3))
      << Err;
  return Path;
}

} // namespace

// Shutdown while requests are in flight: clients hammer the daemon as
// a shutdown lands in the middle.  Every response must be either a
// complete correct result or a clean connection-level failure — never
// a torn frame — and stop() must join every thread (a hang here is
// the failure).
TEST(ConcurrencyStressTest, ServerShutdownWhileRequestsInFlight) {
  std::string Socket = testing::TempDir() + "pp_drain_" +
                       std::to_string(::getpid()) + ".sock";
  std::string Path = tinyTraceFile(7777);

  serve::ServerOptions Opts;
  Opts.SocketPath = Socket;
  Opts.NumWorkers = 2;
  serve::Server Daemon(Opts);
  Expected<void> Ok = Daemon.start();
  ASSERT_TRUE(Ok.ok()) << Ok.message();

  constexpr unsigned NumClients = 6;
  std::atomic<unsigned> Completed{0};
  std::atomic<unsigned> Torn{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != NumClients; ++C)
    Clients.emplace_back([&] {
      while (!Stop.load()) {
        serve::ServeClient Client;
        if (!Client.connect(Socket).ok())
          break; // Daemon gone: the socket is down, that's a clean end.
        serve::AnalyzeRequest Req;
        Req.Path = Path;
        Expected<serve::ResultSummary> Sum = Client.analyze(Req);
        if (Sum.ok()) {
          Completed.fetch_add(1);
          if (Sum->NullLock + Sum->ReadRead + Sum->DisjointWrite +
                  Sum->Benign + Sum->TrueContention ==
              0)
            Torn.fetch_add(1); // tinyTrace always has pairs
        }
        // !ok is fine: a connection dropped during drain.
      }
    });

  // Let some requests complete, then shut down mid-stream.
  while (Completed.load() < 4)
    std::this_thread::yield();
  {
    serve::ServeClient Shut;
    if (Shut.connect(Socket).ok())
      Shut.shutdown();
  }
  Daemon.stop(); // Must drain and join without hanging.
  Stop.store(true);
  for (std::thread &T : Clients)
    T.join();

  EXPECT_GE(Completed.load(), 4u);
  EXPECT_EQ(Torn.load(), 0u);
  std::remove(Path.c_str());
}

// Recorded traces gathered under contention must analyze end to end.
TEST(ConcurrencyStressTest, RecordedTraceAnalyzesCleanly) {
  Recorder R;
  RecordingMutex Mu(R, "lock");
  SharedVar<uint64_t> Flag(R, "flag");
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      ThreadId Tid = R.registerThread();
      for (int I = 0; I != 50; ++I) {
        RecordedSection Guard(Mu, Tid);
        if (Flag.load(Tid) == 0)
          Flag.store(Tid, 1); // Redundant after the first writer.
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  Engine E;
  AnalysisSession Session = E.openSession(finishOk(R));
  Expected<const DetectResult &> Detected = Session.detect();
  ASSERT_TRUE(Detected.ok());
  EXPECT_GT(Detected->Counts.total(), 0u);
}

// -----------------------------------------------------------------------------
// LD_PRELOAD recorder runtime (record/Preload.h)
//
// The preload shim itself cannot run under TSan (its interceptors
// shadow the interposition), so the ring/flusher pipeline is stressed
// here through the same RecordRuntime the shim drives — every lane
// exercises the lock-free SPSC rings, the address-interning tables and
// the background flusher under real contention.
// -----------------------------------------------------------------------------

// Multi-producer stress with rings sized above the per-thread volume:
// every attempt must land, the counters must balance exactly, and the
// streamed trace must be structurally valid.
TEST(ConcurrencyStressTest, RecordRuntimeNoDropExactCounts) {
  const std::string Out =
      testing::TempDir() + "perfplay_stress_nodrop.v3";
  record::RecordOptions Opts;
  Opts.OutPath = Out;
  Opts.RingCapacity = 1u << 14;
  record::RecordRuntime RT(Opts);

  constexpr unsigned NumThreads = 4;
  constexpr unsigned Rounds = 2000;
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != NumThreads; ++W)
    Workers.emplace_back([&RT, W] {
      const uintptr_t Own = 0x1000 + W * 0x100;
      const uintptr_t Hot = 0xbeef0;
      uint64_t Ts = 1;
      for (unsigned I = 0; I != Rounds; ++I) {
        RT.mutexAcquired(Own, nullptr, Ts, Ts + 1);
        RT.released(Own, false, Ts + 2);
        RT.mutexAcquired(Hot, nullptr, Ts + 3, Ts + 4);
        RT.released(Hot, false, Ts + 5);
        Ts += 10;
      }
    });
  for (std::thread &T : Workers)
    T.join();

  record::RecordSummary S = RT.finalize();
  ASSERT_TRUE(S.Ok) << S.Error;
  // 4 ops per round, plus each worker's ThreadEnd from the TLS
  // destructor.
  EXPECT_EQ(S.Attempts, NumThreads * (Rounds * 4ull + 1));
  EXPECT_EQ(S.Drops, 0u);
  EXPECT_EQ(S.Records, S.Attempts);
  EXPECT_EQ(S.Sections, NumThreads * Rounds * 2ull);
  EXPECT_EQ(S.UnmatchedReleases, 0u);
  EXPECT_EQ(S.SynthesizedReleases, 0u);

  Expected<Trace> Tr = readTraceFile(Out);
  ASSERT_TRUE(Tr.ok()) << Tr.message();
  EXPECT_EQ(Tr->numThreads(), NumThreads);
  EXPECT_EQ(Tr->numCriticalSections(), NumThreads * Rounds * 2ull);
  std::remove(Out.c_str());
}

// An undersized ring with a sleepy flusher must shed load: drops are
// counted exactly (attempts == records + drops) and the survivors
// still stream into a structurally valid trace.
TEST(ConcurrencyStressTest, RecordRuntimeUndersizedRingCountsDrops) {
  const std::string Out =
      testing::TempDir() + "perfplay_stress_drops.v3";
  record::RecordOptions Opts;
  Opts.OutPath = Out;
  Opts.RingCapacity = 64;
  Opts.FlushIntervalMs = 1000; // Starve the drain so the ring fills.
  record::RecordRuntime RT(Opts);

  constexpr unsigned Rounds = 5000;
  std::thread Producer([&RT] {
    uint64_t Ts = 1;
    for (unsigned I = 0; I != Rounds; ++I) {
      RT.mutexAcquired(0x1000, nullptr, Ts, Ts + 1);
      RT.released(0x1000, false, Ts + 2);
      Ts += 10;
    }
  });
  Producer.join();

  record::RecordSummary S = RT.finalize();
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_GT(S.Drops, 0u);
  EXPECT_EQ(S.Attempts, S.Records + S.Drops);

  // Dropped opens/releases may leave dangling state, but the fixups
  // must still deliver a loadable trace.
  Expected<Trace> Tr = readTraceFile(Out);
  ASSERT_TRUE(Tr.ok()) << Tr.message();
  std::remove(Out.c_str());
}

// Seeded random hook streams — arbitrarily broken nesting, unmatched
// releases, interleaved cond traffic and shared accesses — must always
// translate into a trace that loads and validates: the flusher owns
// structural validity, whatever the producers feed it.
TEST(ConcurrencyStressTest, RecordRuntimeRandomOpsAlwaysValid) {
  for (uint32_t Seed = 1; Seed <= 3; ++Seed) {
    const std::string Out = testing::TempDir() +
                            "perfplay_stress_random" +
                            std::to_string(Seed) + ".v3";
    record::RecordOptions Opts;
    Opts.OutPath = Out;
    Opts.RingCapacity = 256; // Small enough to force mid-run drains.
    Opts.FlushIntervalMs = 1;
    record::RecordRuntime RT(Opts);

    constexpr unsigned NumThreads = 4;
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W != NumThreads; ++W)
      Workers.emplace_back([&RT, W, Seed] {
        std::minstd_rand Rng(Seed * 97 + W);
        uint64_t Ts = 1;
        for (unsigned I = 0; I != 2000; ++I) {
          const uintptr_t L = 0x1000 + (Rng() % 8) * 0x40;
          const uintptr_t C = 0x9000 + (Rng() % 2) * 0x40;
          switch (Rng() % 9) {
          case 0:
            RT.mutexAcquired(L, nullptr, Ts, Ts + 1);
            break;
          case 1:
            RT.rwAcquired(L, (Rng() & 1) != 0, nullptr, Ts, Ts + 1);
            break;
          case 2:
            RT.tryAcquire(L, false, (Rng() & 1) != 0, nullptr, Ts, Ts + 1);
            break;
          case 3:
          case 4:
          case 5:
            RT.released(L, false, Ts);
            break;
          case 6:
            RT.condWaited(C, L, nullptr, Ts, Ts + 1);
            break;
          case 7:
            RT.condSignaled(C, (Rng() & 1) != 0, Ts);
            break;
          default: {
            // A Read, or a Write of any of the five WriteOpKinds, at a
            // full 64-bit address.
            const unsigned Kind = Rng() % 6;
            const uint64_t Addr =
                static_cast<uint64_t>(Rng()) << 32 | Rng();
            RT.pushRecord(record::accessRecord(
                Kind == 5 ? record::RecOp::Read : record::RecOp::Write,
                Addr, Rng(), static_cast<uint8_t>(Kind % 5), Ts));
            break;
          }
          }
          Ts += 3;
        }
      });
    for (std::thread &T : Workers)
      T.join();

    record::RecordSummary S = RT.finalize();
    ASSERT_TRUE(S.Ok) << S.Error;
    EXPECT_EQ(S.Attempts, S.Records + S.Drops);

    Expected<Trace> Tr = readTraceFile(Out);
    ASSERT_TRUE(Tr.ok()) << "seed " << Seed << ": " << Tr.message();
    EXPECT_EQ(Tr->numThreads(), NumThreads);
    std::remove(Out.c_str());
  }
}

// Interning churn: many threads race to intern overlapping address
// sets; ids must be dense, stable and consistent across threads.
TEST(ConcurrencyStressTest, AddrTableConcurrentInterning) {
  record::AddrTable Table(1024);
  constexpr unsigned NumThreads = 8;
  constexpr unsigned NumAddrs = 300;
  std::vector<std::vector<uint32_t>> Ids(NumThreads);
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != NumThreads; ++W)
    Workers.emplace_back([&Table, &Ids, W] {
      Ids[W].resize(NumAddrs);
      for (unsigned I = 0; I != NumAddrs; ++I) {
        // Walk the shared set in a thread-specific rotation.
        unsigned A = (I + W * 37) % NumAddrs;
        Ids[W][A] = Table.intern(0x10000 + A * 0x10, record::LockTagMutex);
      }
    });
  for (std::thread &T : Workers)
    T.join();

  EXPECT_EQ(Table.count(), NumAddrs);
  for (unsigned W = 1; W != NumThreads; ++W)
    EXPECT_EQ(Ids[W], Ids[0]);
  // Every id maps back to its address.
  for (unsigned A = 0; A != NumAddrs; ++A) {
    uintptr_t Addr = 0;
    uint8_t Tag = 0;
    Table.entry(Ids[0][A], Addr, Tag);
    EXPECT_EQ(Addr, 0x10000 + A * 0x10);
    EXPECT_EQ(Tag, record::LockTagMutex);
  }
}

// A full AddrTable refuses new addresses instead of corrupting state.
TEST(ConcurrencyStressTest, AddrTableFullReturnsInvalid) {
  record::AddrTable Table(64); // Rounds to 64 slots.
  unsigned Interned = 0;
  for (unsigned A = 0; A != 200; ++A)
    if (Table.intern(0x1000 + A * 0x20, 0) != record::InvalidRecId)
      ++Interned;
  EXPECT_EQ(Interned, 64u);
  EXPECT_EQ(Table.count(), 64u);
  // Known addresses still resolve after the table fills.
  EXPECT_NE(Table.intern(0x1000, 0), record::InvalidRecId);
}
