//===- serve/ResultCache.cpp - Single-flight result LRU for serve -----------===//

#include "serve/ResultCache.h"

#include <cassert>

using namespace perfplay;
using namespace perfplay::serve;

uint64_t perfplay::serve::hashBytes(const uint8_t *Data, size_t Size) {
  uint64_t H = 1469598103934665603ull; // FNV offset basis
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 1099511628211ull; // FNV prime
  }
  return H;
}

Expected<ResultSummary> ResultCache::get(const Key &K,
                                         const ComputeFn &Compute,
                                         bool &FromCache) {
  FromCache = false;
  std::shared_ptr<Slot> Mine;
  {
    MutexLock Lock(Mu);
    for (;;) {
      auto It = Slots.find(K);
      if (It == Slots.end())
        break;
      std::shared_ptr<Slot> S = It->second;
      while (S->State == Slot::InFlight)
        Cv.wait(Mu);
      if (S->State == Slot::Ready) {
        S->LastUse = ++Clock;
        ++Hits;
        FromCache = true;
        return S->Sum;
      }
      // The compute failed and its slot is gone: re-check the key.
    }
    Mine = std::make_shared<Slot>();
    Slots.emplace(K, Mine);
    ++Misses;
  }

  Expected<ResultSummary> Result = Compute(); // no lock held

  {
    MutexLock Lock(Mu);
    if (Result) {
      Mine->State = Slot::Ready;
      Mine->Sum = *Result;
      Mine->LastUse = ++Clock;
      TotalBytes += SlotCharge;
      evictToBudget();
    } else {
      Mine->State = Slot::Failed;
      Slots.erase(K);
    }
  }
  Cv.notifyAll();
  return Result;
}

void ResultCache::evictToBudget() {
  while (TotalBytes > BudgetBytes) {
    // A linear scan: eviction only follows a full pipeline run, which
    // dwarfs a walk over a budget-bounded map.
    auto Oldest = Slots.end();
    for (auto It = Slots.begin(); It != Slots.end(); ++It)
      if (It->second->State == Slot::Ready &&
          (Oldest == Slots.end() ||
           It->second->LastUse < Oldest->second->LastUse))
        Oldest = It;
    assert(Oldest != Slots.end() && "charged bytes without a ready slot");
    Slots.erase(Oldest);
    TotalBytes -= SlotCharge;
    ++Evictions;
  }
}

void ResultCache::fillStats(ServeStats &Stats) const {
  MutexLock Lock(Mu);
  Stats.ResultCacheHits = Hits;
  Stats.ResultCacheMisses = Misses;
  Stats.CacheEvictions = Evictions;
  Stats.CachedResults = TotalBytes / SlotCharge; // one charge per ready slot
  Stats.CacheBytes = TotalBytes;
}
