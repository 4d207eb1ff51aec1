//===- bench/micro_serve_throughput.cpp - serve daemon throughput -----------===//
//
// Benchmarks the `perfplay serve` daemon (src/serve/) end to end over a
// real unix-domain socket: an in-process daemon, a corpus of small
// traces, and clients speaking the wire protocol.  Three gated
// measurements:
//
//  * warm vs cold latency — a --no-cache request pays parse + pipeline
//    every time; a warm request is a result-cache hit.  The run fails
//    unless warm is at least --min-warm-speedup (default 5x) faster.
//  * sustained throughput — --clients concurrent connections issue
//    --requests mixed requests over the corpus; the run fails below
//    --min-rps (default 100 req/sec) or on any failed response.
//  * parity — every daemon verdict summary is compared field-for-field
//    against Engine::analyzeTrace on the same file; any divergence is
//    fatal.
//
// Emits BENCH_serve.json (schema in docs/PERFORMANCE.md).
//
// Usage:
//   bench_micro_serve_throughput [--traces N] [--requests N] [--clients N]
//                                [--repeat K] [--out FILE]
//                                [--min-warm-speedup X] [--min-rps X]
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "serve/Server.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace perfplay;
using namespace perfplay::serve;

namespace {

uint64_t nowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One small-corpus entry: a contended two-lock trace whose verdict
/// mix varies with \p Salt (so corpus entries are genuinely distinct
/// content hashes with distinct answers).
Trace corpusTrace(unsigned Salt) {
  TraceBuilder B;
  LockId Hot = B.addLock("hot");
  LockId Cold = B.addLock("cold");
  CodeSiteId Site = B.addSite("serve_bench.cc", "worker", 1, 9);
  std::vector<ThreadId> Ids;
  for (unsigned T = 0; T != 3; ++T)
    Ids.push_back(B.addThread());
  for (unsigned Round = 0; Round != 8 + Salt % 4; ++Round)
    for (ThreadId Id : Ids) {
      B.compute(Id, 2 + Salt % 3);
      B.beginCs(Id, Round % 3 ? Hot : Cold, Site);
      switch ((Round + Salt) % 4) {
      case 0:
        B.write(Id, 1, 7); // redundant store
        break;
      case 1:
        B.read(Id, 2, 0); // read-read
        break;
      case 2:
        B.write(Id, 100 + Id, Salt); // disjoint per-thread slot
        break;
      default:
        B.write(Id, 3, Round + Salt); // true contention
        break;
      }
      B.endCs(Id);
    }
  return B.finish();
}

std::string option(int Argc, char **Argv, const char *Name,
                   const char *Default) {
  std::string Prefix = std::string(Name) + "=";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], Name) == 0 && I + 1 < Argc)
      return Argv[I + 1];
    if (std::strncmp(Argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return Argv[I] + Prefix.size();
  }
  return Default;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned NumTraces = static_cast<unsigned>(
      std::atoi(option(Argc, Argv, "--traces", "6").c_str()));
  unsigned Requests = static_cast<unsigned>(
      std::atoi(option(Argc, Argv, "--requests", "300").c_str()));
  unsigned Clients = static_cast<unsigned>(
      std::atoi(option(Argc, Argv, "--clients", "4").c_str()));
  unsigned Repeat = static_cast<unsigned>(
      std::atoi(option(Argc, Argv, "--repeat", "3").c_str()));
  std::string Out = option(Argc, Argv, "--out", "BENCH_serve.json");
  double MinWarmSpeedup =
      std::atof(option(Argc, Argv, "--min-warm-speedup", "5.0").c_str());
  double MinRps = std::atof(option(Argc, Argv, "--min-rps", "100").c_str());
  if (NumTraces == 0)
    NumTraces = 1;
  if (Repeat == 0)
    Repeat = 1;
  if (Clients == 0)
    Clients = 1;

  // -- Corpus + direct-engine parity reference ------------------------------
  std::string Dir = "/tmp";
  if (const char *Env = std::getenv("TMPDIR"))
    Dir = Env;
  std::vector<std::string> Paths;
  std::vector<ResultSummary> Direct;
  Engine E;
  for (unsigned I = 0; I != NumTraces; ++I) {
    Trace Tr = corpusTrace(I);
    std::string Path = Dir + "/pp_bench_serve_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(I) + ".v3trace";
    std::string Err;
    if (!saveTrace(Tr, Path, Err, TraceFormat::V3)) {
      std::fprintf(stderr, "FATAL: cannot write corpus: %s\n", Err.c_str());
      return 1;
    }
    Paths.push_back(Path);
    Expected<PipelineResult> R = E.analyzeTrace(std::move(Tr));
    if (!R.ok()) {
      std::fprintf(stderr, "FATAL: direct analysis failed: %s\n",
                   R.message().c_str());
      return 1;
    }
    Direct.push_back(summarizeResult(*R));
  }

  // -- Daemon ---------------------------------------------------------------
  ServerOptions Opts;
  Opts.SocketPath =
      Dir + "/pp_bench_serve_" + std::to_string(::getpid()) + ".sock";
  Opts.NumWorkers = Clients < 4 ? Clients : 4;
  Server Daemon(Opts);
  {
    Expected<void> Ok = Daemon.start();
    if (!Ok.ok()) {
      std::fprintf(stderr, "FATAL: daemon start failed: %s\n",
                   Ok.message().c_str());
      return 1;
    }
  }

  // -- Cold vs warm + parity ------------------------------------------------
  // Cold: --no-cache requests pay parse + full pipeline every time.
  // Warm: after one caching request, every repeat is a result-cache
  // hit.  Both paths' verdicts must match the direct engine run.
  double ColdSum = 0, WarmSum = 0;
  unsigned ColdN = 0, WarmN = 0;
  {
    ServeClient Client;
    Expected<void> Conn = Client.connect(Opts.SocketPath);
    if (!Conn.ok()) {
      std::fprintf(stderr, "FATAL: connect: %s\n", Conn.message().c_str());
      return 1;
    }
    for (unsigned I = 0; I != NumTraces; ++I) {
      for (unsigned K = 0; K != Repeat; ++K) {
        AnalyzeRequest Req;
        Req.Path = Paths[I];
        Req.NoCache = 1;
        uint64_t T0 = nowMicros();
        Expected<ResultSummary> Sum = Client.analyze(Req);
        uint64_t Micros = nowMicros() - T0;
        if (!Sum.ok()) {
          std::fprintf(stderr, "FATAL: cold analyze failed: %s\n",
                       Sum.message().c_str());
          return 1;
        }
        if (!Sum->sameVerdicts(Direct[I])) {
          std::fprintf(stderr,
                       "FATAL: daemon verdicts diverged from "
                       "Engine::analyzeTrace on corpus entry %u\n",
                       I);
          return 1;
        }
        ColdSum += static_cast<double>(Micros);
        ++ColdN;
      }
      // Populate the cache, then measure warm hits.
      AnalyzeRequest Req;
      Req.Path = Paths[I];
      (void)Client.analyze(Req);
      for (unsigned K = 0; K != Repeat; ++K) {
        uint64_t T0 = nowMicros();
        Expected<ResultSummary> Sum = Client.analyze(Req);
        uint64_t Micros = nowMicros() - T0;
        if (!Sum.ok() || !Sum->FromResultCache) {
          std::fprintf(stderr, "FATAL: warm request missed the cache\n");
          return 1;
        }
        if (!Sum->sameVerdicts(Direct[I])) {
          std::fprintf(stderr, "FATAL: warm verdicts diverged on entry "
                               "%u\n",
                       I);
          return 1;
        }
        WarmSum += static_cast<double>(Micros);
        ++WarmN;
      }
    }
  }
  double ColdMean = ColdSum / ColdN;
  double WarmMean = WarmSum / WarmN;
  double WarmSpeedup = WarmMean > 0 ? ColdMean / WarmMean : 0;

  // -- Sustained throughput -------------------------------------------------
  std::atomic<unsigned> Errors{0};
  std::atomic<unsigned> Issued{0};
  std::vector<std::thread> Threads;
  uint64_t SustainedT0 = nowMicros();
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      ServeClient Client;
      if (!Client.connect(Opts.SocketPath).ok()) {
        Errors.fetch_add(1);
        return;
      }
      for (;;) {
        unsigned I = Issued.fetch_add(1);
        if (I >= Requests)
          return;
        AnalyzeRequest Req;
        Req.Path = Paths[(I + C) % Paths.size()];
        Expected<ResultSummary> Sum = Client.analyze(Req);
        if (!Sum.ok() ||
            !Sum->sameVerdicts(Direct[(I + C) % Paths.size()]))
          Errors.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double SustainedSecs =
      static_cast<double>(nowMicros() - SustainedT0) / 1e6;
  double Rps = SustainedSecs > 0 ? Requests / SustainedSecs : 0;

  ServeStats Final = Daemon.stats();
  Daemon.stop();
  for (const std::string &P : Paths)
    std::remove(P.c_str());

  // -- Report + gates -------------------------------------------------------
  std::printf("serve bench: %u traces, %u clients, %u requests\n",
              NumTraces, Clients, Requests);
  std::printf("  cold  : %.0f us mean (parse + pipeline, --no-cache)\n",
              ColdMean);
  std::printf("  warm  : %.0f us mean (result-cache hit), speedup %.1fx\n",
              WarmMean, WarmSpeedup);
  std::printf("  burst : %.0f req/sec sustained, %u errors, p50 %llu us, "
              "p99 %llu us\n",
              Rps, Errors.load(),
              static_cast<unsigned long long>(Final.P50Micros),
              static_cast<unsigned long long>(Final.P99Micros));

  FILE *F = std::fopen(Out.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", Out.c_str());
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"bench\": \"serve_throughput\",\n");
  std::fprintf(F, "  \"traces\": %u,\n", NumTraces);
  std::fprintf(F, "  \"clients\": %u,\n", Clients);
  std::fprintf(F, "  \"requests\": %u,\n", Requests);
  std::fprintf(F, "  \"cold_micros_mean\": %.1f,\n", ColdMean);
  std::fprintf(F, "  \"warm_micros_mean\": %.1f,\n", WarmMean);
  std::fprintf(F, "  \"warm_speedup\": %.2f,\n", WarmSpeedup);
  std::fprintf(F, "  \"sustained_rps\": %.1f,\n", Rps);
  std::fprintf(F, "  \"errors\": %u,\n", Errors.load());
  std::fprintf(F, "  \"p50_micros\": %llu,\n",
               static_cast<unsigned long long>(Final.P50Micros));
  std::fprintf(F, "  \"p99_micros\": %llu,\n",
               static_cast<unsigned long long>(Final.P99Micros));
  std::fprintf(F, "  \"result_cache_hits\": %llu,\n",
               static_cast<unsigned long long>(Final.ResultCacheHits));
  std::fprintf(F, "  \"result_cache_misses\": %llu,\n",
               static_cast<unsigned long long>(Final.ResultCacheMisses));
  std::fprintf(F, "  \"parity\": \"ok\"\n");
  std::fprintf(F, "}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Out.c_str());

  // Exit gates (CI smoke): warm speedup, sustained rate, zero errors.
  if (Errors.load() != 0) {
    std::fprintf(stderr, "FATAL: %u failed responses in the sustained "
                         "burst\n",
                 Errors.load());
    return 1;
  }
  if (WarmSpeedup < MinWarmSpeedup) {
    std::fprintf(stderr,
                 "FATAL: warm-cache speedup %.2fx below the %.1fx gate\n",
                 WarmSpeedup, MinWarmSpeedup);
    return 1;
  }
  if (Rps < MinRps) {
    std::fprintf(stderr,
                 "FATAL: sustained %.1f req/sec below the %.1f gate\n",
                 Rps, MinRps);
    return 1;
  }
  return 0;
}
