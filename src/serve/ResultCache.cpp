//===- serve/ResultCache.cpp - Single-flight result LRU for serve -----------===//

#include "serve/ResultCache.h"

#include <cassert>
#include <cstring>

using namespace perfplay;
using namespace perfplay::serve;

namespace {

// XXH64 (Yann Collet, https://github.com/Cyan4973/xxHash), seed 0.
constexpr uint64_t P1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t P2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t P3 = 0x165667B19E3779F9ull;
constexpr uint64_t P4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t P5 = 0x27D4EB2F165667C5ull;

uint64_t rotl(uint64_t X, unsigned R) { return (X << R) | (X >> (64 - R)); }

/// Little-endian loads: the same digest on every host, and no
/// unaligned access through a wider pointer.
uint64_t loadLE64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap64(V);
#endif
  return V;
}

uint32_t loadLE32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof(V));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap32(V);
#endif
  return V;
}

uint64_t xxRound(uint64_t Acc, uint64_t In) {
  return rotl(Acc + In * P2, 31) * P1;
}

uint64_t xxMerge(uint64_t Acc, uint64_t Lane) {
  return (Acc ^ xxRound(0, Lane)) * P1 + P4;
}

} // namespace

uint64_t perfplay::serve::hashBytes(const uint8_t *Data, size_t Size) {
  const uint8_t *P = Data;
  const uint8_t *End = Data + Size;
  uint64_t H;
  if (Size >= 32) {
    // Four independent lanes keep the multipliers busy in parallel.
    uint64_t V1 = P1 + P2, V2 = P2, V3 = 0, V4 = 0 - P1;
    for (; End - P >= 32; P += 32) {
      V1 = xxRound(V1, loadLE64(P));
      V2 = xxRound(V2, loadLE64(P + 8));
      V3 = xxRound(V3, loadLE64(P + 16));
      V4 = xxRound(V4, loadLE64(P + 24));
    }
    H = rotl(V1, 1) + rotl(V2, 7) + rotl(V3, 12) + rotl(V4, 18);
    H = xxMerge(H, V1);
    H = xxMerge(H, V2);
    H = xxMerge(H, V3);
    H = xxMerge(H, V4);
  } else {
    H = P5;
  }
  H += static_cast<uint64_t>(Size);

  for (; End - P >= 8; P += 8)
    H = rotl(H ^ xxRound(0, loadLE64(P)), 27) * P1 + P4;
  if (End - P >= 4) {
    H = rotl(H ^ loadLE32(P) * P1, 23) * P2 + P3;
    P += 4;
  }
  for (; P != End; ++P)
    H = rotl(H ^ *P * P5, 11) * P1;

  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  H ^= H >> 32;
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
