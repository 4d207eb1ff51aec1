//===- serve/TraceCache.h - Shared trace/result LRU for serve ----*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve daemon's shared cache: a content-hash-keyed LRU of parsed
/// Traces and finished analysis summaries, shared across every request
/// the daemon serves.  Two structural guarantees:
///
///  * **Exactly-once parse per content hash.**  Concurrent misses on
///    the same content coordinate through an in-flight set (FlightMu +
///    FlightCv): one thread parses, the rest wait and take the cached
///    copy.  A thread re-checks the cache after claiming a hash, so a
///    parse that finished between its miss and its claim is not
///    repeated.  tests/ConcurrencyStressTest.cpp hammers this from N
///    threads and asserts the parser ran once per distinct content.
///
///  * **Bounded memory.**  Every entry is charged against a byte
///    budget (a trace costs its file size — the mmap-era proxy for its
///    in-memory footprint — a result its summary size); inserts evict
///    least-recently-used entries until the total fits.
///
/// Locking (both locks are leaves; they are never held together):
///  * CacheMu (SharedMutex) guards the two maps.  Lookups take it
///    shared and record recency through a per-entry atomic clock, so
///    the hot hit path never serializes readers; inserts/evictions
///    take it exclusive.
///  * FlightMu (Mutex) + FlightCv guard only the in-flight hash set.
///    Parsing itself runs with no lock held.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SERVE_TRACECACHE_H
#define PERFPLAY_SERVE_TRACECACHE_H

#include "serve/Protocol.h"
#include "support/ThreadAnnotations.h"
#include "trace/Trace.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

namespace perfplay {
namespace serve {

/// FNV-1a over \p Size bytes — the content hash keying both caches.
uint64_t hashBytes(const uint8_t *Data, size_t Size);

/// The daemon's shared trace + result cache.  Thread-safe; one
/// instance per server, hit from every worker.
class TraceCache {
public:
  /// \p BudgetBytes bounds the summed charge of cached traces and
  /// results (0 = cache nothing).  An entry larger than the whole
  /// budget is evicted by the very next insert, so the cache degrades
  /// to pass-through rather than blowing the bound.
  explicit TraceCache(size_t BudgetBytes) : BudgetBytes(BudgetBytes) {}

  /// Reads the file at \p Path, content-hashes it, and returns the
  /// parsed trace — from the cache when the same bytes were parsed
  /// before, otherwise parsing exactly once even under concurrent
  /// misses.  \p HashOut receives the content hash (the result-cache
  /// key); \p FromCache reports whether a re-parse was avoided.  With
  /// \p Bypass the caches are neither consulted nor populated (the
  /// bench's cold-path control).  Returned traces are copies — the
  /// caller owns its storage outright (Trace copies re-own pooled
  /// names) and the cached original can be evicted at any time.
  Expected<Trace> getTrace(const std::string &Path, uint64_t &HashOut,
                           bool &FromCache, bool Bypass = false)
      EXCLUDES(CacheMu, FlightMu);

  /// The bytes-level core of getTrace, for callers that already mapped
  /// and hashed the content (the server does, to probe the result
  /// cache before parsing): returns the trace for \p Hash, parsing
  /// \p Data exactly once per distinct hash even under concurrent
  /// misses.  \p Diag names the source in parse diagnostics.
  Expected<Trace> getTraceBytes(const uint8_t *Data, size_t Size,
                                uint64_t Hash, const std::string &Diag,
                                bool &FromCache, bool Bypass = false)
      EXCLUDES(CacheMu, FlightMu);

  /// Looks up the finished summary for (content hash, options
  /// fingerprint).  True on hit (recency bumped).
  bool lookupResult(uint64_t Hash, uint64_t OptionsFp, ResultSummary &Out)
      EXCLUDES(CacheMu);

  /// Caches \p Sum under (hash, fingerprint), evicting to budget.
  void storeResult(uint64_t Hash, uint64_t OptionsFp,
                   const ResultSummary &Sum) EXCLUDES(CacheMu);

  /// Copies the cache's counters into the corresponding \p Stats
  /// fields (the STATS response; everything else in ServeStats belongs
  /// to the server).
  void fillStats(ServeStats &Stats) const EXCLUDES(CacheMu);

  /// Test seam: replaces the file-bytes parser (default:
  /// parseTraceBuffer).  The concurrency stress test injects a
  /// counting parser to assert exactly-once semantics.  Not
  /// thread-safe — install before sharing the cache.
  using ParseFn = std::function<bool(const uint8_t *Data, size_t Size,
                                     Trace &Out, std::string &Err)>;
  void setParserForTesting(ParseFn Fn) { Parser = std::move(Fn); }

private:
  struct TraceEntry {
    std::shared_ptr<const Trace> Tr;
    size_t Charge = 0;
    std::atomic<uint64_t> LastUse{0};
  };
  struct ResultEntry {
    ResultSummary Sum;
    size_t Charge = 0;
    std::atomic<uint64_t> LastUse{0};
  };

  /// Evicts least-recently-used entries (across both maps) until the
  /// summed charge fits the budget.
  void evictToBudget() REQUIRES(CacheMu);

  /// The cached trace for \p Hash (recency bumped), or null on a miss.
  std::shared_ptr<const Trace> findTrace(uint64_t Hash) EXCLUDES(CacheMu);

  /// Drops \p Hash from the in-flight set and wakes its waiters.
  void releaseFlight(uint64_t Hash) EXCLUDES(FlightMu);

  uint64_t bumpClock() { return Clock.fetch_add(1) + 1; }

  const size_t BudgetBytes;
  ParseFn Parser; // empty = parseTraceBuffer

  /// Recency clock; entries stamp their LastUse from it on every hit,
  /// which is why hits only need the shared lock.
  std::atomic<uint64_t> Clock{0};

  mutable SharedMutex CacheMu;
  std::map<uint64_t, std::unique_ptr<TraceEntry>> Traces GUARDED_BY(CacheMu);
  std::map<std::pair<uint64_t, uint64_t>, std::unique_ptr<ResultEntry>>
      Results GUARDED_BY(CacheMu);
  size_t TotalBytes GUARDED_BY(CacheMu) = 0;

  /// In-flight parse coordination.  Strictly a leaf: never acquired
  /// with CacheMu held (and vice versa).
  Mutex FlightMu;
  CondVar FlightCv;
  std::set<uint64_t> InFlight GUARDED_BY(FlightMu);

  // Monotonic counters (atomic — readable without any lock).
  std::atomic<uint64_t> TraceHits{0};
  std::atomic<uint64_t> TraceMisses{0};
  std::atomic<uint64_t> ResultHits{0};
  std::atomic<uint64_t> ResultMisses{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace serve
} // namespace perfplay

#endif // PERFPLAY_SERVE_TRACECACHE_H
