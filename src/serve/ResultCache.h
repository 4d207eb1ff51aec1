//===- serve/ResultCache.h - Single-flight result LRU for serve --*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve daemon's cache of finished answers: an LRU map from
/// (content hash, pair mode) to a slot that is either *in flight* (one
/// request is computing it) or *ready* (it holds the ResultSummary).
/// The daemon caches answers, not parses — no Trace outlives the
/// request that parsed it.
///
///  * **Exactly-once compute per key.**  A missing key is claimed by
///    inserting an in-flight slot; concurrent requests for the same key
///    wait on that slot instead of computing it again, and count as
///    hits when it turns ready.  A failed compute is never cached: its
///    slot is erased and its waiters re-check, so one of them claims
///    the key and retries.
///
///  * **Bounded memory.**  Each ready slot is charged a fixed size
///    against the byte budget; turning a slot ready evicts the
///    least-recently-used ready slots until the total fits.  In-flight
///    slots are never charged and never evicted.
///
/// Locking: one leaf Mutex (Mu) + CondVar (Cv) guard the map, the
/// recency clock and the counters.  Compute runs with no lock held.
/// tests/ConcurrencyStressTest.cpp hammers both guarantees.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SERVE_RESULTCACHE_H
#define PERFPLAY_SERVE_RESULTCACHE_H

#include "serve/Protocol.h"
#include "support/ThreadAnnotations.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>

namespace perfplay {
namespace serve {

/// FNV-1a over \p Size bytes — the content half of a ResultCache key.
uint64_t hashBytes(const uint8_t *Data, size_t Size);

/// The daemon's shared result cache.  Thread-safe; one instance per
/// server, hit from every worker.
class ResultCache {
public:
  /// (content hash, AnalyzeRequest::PairMode): the bytes plus the one
  /// verdict-changing option the wire exposes.
  using Key = std::pair<uint64_t, uint8_t>;
  /// Produces the answer for a key on a miss.
  using ComputeFn = std::function<Expected<ResultSummary>()>;

  /// \p BudgetBytes bounds the summed charge of ready slots.  A budget
  /// smaller than one slot keeps nothing once a compute finishes, but
  /// still collapses concurrent misses on one key into one compute.
  explicit ResultCache(size_t BudgetBytes) : BudgetBytes(BudgetBytes) {}

  /// Returns the answer for \p K: the cached one (\p FromCache = true),
  /// the one a concurrent request is computing (waited for; also
  /// \p FromCache = true), or the result of running \p Compute once
  /// with no lock held.  A failed \p Compute returns its error to this
  /// caller only and leaves no slot behind.
  Expected<ResultSummary> get(const Key &K, const ComputeFn &Compute,
                              bool &FromCache) EXCLUDES(Mu);

  /// Copies the cache's counters into the corresponding \p Stats
  /// fields (the STATS response; everything else in ServeStats belongs
  /// to the server).
  void fillStats(ServeStats &Stats) const EXCLUDES(Mu);

private:
  /// Every field is read and written under Mu.
  struct Slot {
    enum StateKind { InFlight, Ready, Failed } State = InFlight;
    ResultSummary Sum;
    uint64_t LastUse = 0;
  };
  /// What one ready slot costs against the budget.
  static constexpr size_t SlotCharge = sizeof(Slot) + sizeof(Key);

  /// Evicts least-recently-used ready slots until the charge fits.
  void evictToBudget() REQUIRES(Mu);

  const size_t BudgetBytes;

  mutable Mutex Mu;
  /// Signalled whenever an in-flight slot turns ready or failed.
  CondVar Cv;
  /// Slots are shared so a waiter can read the answer it waited for
  /// even if the slot was evicted before the waiter woke.
  std::map<Key, std::shared_ptr<Slot>> Slots GUARDED_BY(Mu);
  size_t TotalBytes GUARDED_BY(Mu) = 0;
  uint64_t Clock GUARDED_BY(Mu) = 0;
  uint64_t Hits GUARDED_BY(Mu) = 0;
  uint64_t Misses GUARDED_BY(Mu) = 0;
  uint64_t Evictions GUARDED_BY(Mu) = 0;
};

} // namespace serve
} // namespace perfplay

#endif // PERFPLAY_SERVE_RESULTCACHE_H
