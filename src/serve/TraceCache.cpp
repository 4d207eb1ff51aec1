//===- serve/TraceCache.cpp - Shared trace/result LRU for serve -------------===//

#include "serve/TraceCache.h"

#include "support/MappedFile.h"
#include "trace/TraceIO.h"

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

Expected<Trace> TraceCache::getTrace(const std::string &Path,
                                     uint64_t &HashOut, bool &FromCache,
                                     bool Bypass) {
  // Map (or read) the file and hash its contents.  Admission is the
  // mmap + one linear hash pass; the mapping dies with this call, so
  // the parse interns owned names.
  MappedFile File;
  std::string Err;
  if (!File.open(Path, Err))
    return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));
  HashOut = hashBytes(File.data(), File.size());
  return getTraceBytes(File.data(), File.size(), HashOut, Path, FromCache,
                       Bypass);
}

Expected<Trace> TraceCache::getTraceBytes(const uint8_t *Data, size_t Size,
                                          uint64_t Hash,
                                          const std::string &Diag,
                                          bool &FromCache, bool Bypass) {
  FromCache = false;

  auto parse = [&]() -> Expected<Trace> {
    Trace Tr;
    std::string ParseErr;
    bool Ok = Parser ? Parser(Data, Size, Tr, ParseErr)
                     : parseTraceBuffer(Data, Size, Tr, ParseErr);
    if (!Ok)
      return PipelineError(ErrorCode::TraceIOFailed,
                           Diag + ": " + ParseErr);
    return Tr;
  };

  if (Bypass || BudgetBytes == 0)
    return parse();

  auto hit = [&](const Trace &Cached) {
    TraceHits.fetch_add(1, std::memory_order_relaxed);
    FromCache = true;
    return Trace(Cached);
  };
  for (;;) {
    if (std::shared_ptr<const Trace> Cached = findTrace(Hash))
      return hit(*Cached);

    // Miss: claim the parse, or wait for whoever already claimed it
    // and re-check the cache.  FlightMu is a leaf — CacheMu is not
    // held here and is not taken while FlightMu is held.
    {
      MutexLock Lock(FlightMu);
      if (InFlight.count(Hash)) {
        while (InFlight.count(Hash))
          FlightCv.wait(FlightMu);
        continue; // The parser finished (or failed) — re-check.
      }
      InFlight.insert(Hash);
    }
    // Re-check after claiming: between the miss above and the claim, a
    // parser may have inserted this hash and cleared its flight, and
    // the same content must not be parsed twice.
    if (std::shared_ptr<const Trace> Cached = findTrace(Hash)) {
      releaseFlight(Hash);
      return hit(*Cached);
    }
    break;
  }

  TraceMisses.fetch_add(1, std::memory_order_relaxed);
  Expected<Trace> Parsed = parse(); // no locks held

  if (Parsed) {
    auto Entry = std::make_unique<TraceEntry>();
    Entry->Tr = std::make_shared<const Trace>(*Parsed);
    Entry->Charge = Size;
    Entry->LastUse.store(bumpClock(), std::memory_order_relaxed);
    SharedMutexWriteLock Lock(CacheMu);
    auto &Slot = Traces[Hash];
    if (!Slot) { // A Bypass racer cannot exist, but stay idempotent.
      TotalBytes += Entry->Charge;
      Slot = std::move(Entry);
      evictToBudget();
    }
  }

  releaseFlight(Hash);
  return Parsed;
}

std::shared_ptr<const Trace> TraceCache::findTrace(uint64_t Hash) {
  // Shared lock only; recency goes through the atomic clock so
  // concurrent hits never serialize on the writer path.  The returned
  // pointer keeps the trace alive past a concurrent eviction.
  SharedMutexReadLock Lock(CacheMu);
  auto It = Traces.find(Hash);
  if (It == Traces.end())
    return nullptr;
  It->second->LastUse.store(bumpClock(), std::memory_order_relaxed);
  return It->second->Tr;
}

void TraceCache::releaseFlight(uint64_t Hash) {
  {
    MutexLock Lock(FlightMu);
    InFlight.erase(Hash);
  }
  FlightCv.notifyAll();
}

bool TraceCache::lookupResult(uint64_t Hash, uint64_t OptionsFp,
                              ResultSummary &Out) {
  if (BudgetBytes == 0) {
    ResultMisses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  SharedMutexReadLock Lock(CacheMu);
  auto It = Results.find({Hash, OptionsFp});
  if (It == Results.end()) {
    ResultMisses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  It->second->LastUse.store(bumpClock(), std::memory_order_relaxed);
  ResultHits.fetch_add(1, std::memory_order_relaxed);
  Out = It->second->Sum;
  return true;
}

void TraceCache::storeResult(uint64_t Hash, uint64_t OptionsFp,
                             const ResultSummary &Sum) {
  if (BudgetBytes == 0)
    return;
  auto Entry = std::make_unique<ResultEntry>();
  Entry->Sum = Sum;
  Entry->Charge = sizeof(ResultEntry) + 2 * sizeof(uint64_t);
  Entry->LastUse.store(bumpClock(), std::memory_order_relaxed);
  SharedMutexWriteLock Lock(CacheMu);
  auto &Slot = Results[{Hash, OptionsFp}];
  if (!Slot) {
    TotalBytes += Entry->Charge;
    Slot = std::move(Entry);
    evictToBudget();
  }
}

void TraceCache::evictToBudget() {
  while (TotalBytes > BudgetBytes) {
    // Scan both maps for the globally least-recently-used entry.  The
    // maps are small (bounded by the budget) and eviction runs under
    // the exclusive lock, so the linear scan beats maintaining an
    // intrusive LRU list that every shared-lock hit would mutate.
    uint64_t OldestUse = ~0ull;
    auto OldestTrace = Traces.end();
    auto OldestResult = Results.end();
    for (auto It = Traces.begin(); It != Traces.end(); ++It) {
      uint64_t Use = It->second->LastUse.load(std::memory_order_relaxed);
      if (Use < OldestUse) {
        OldestUse = Use;
        OldestTrace = It;
        OldestResult = Results.end();
      }
    }
    for (auto It = Results.begin(); It != Results.end(); ++It) {
      uint64_t Use = It->second->LastUse.load(std::memory_order_relaxed);
      if (Use < OldestUse) {
        OldestUse = Use;
        OldestResult = It;
        OldestTrace = Traces.end();
      }
    }
    if (OldestResult != Results.end()) {
      TotalBytes -= OldestResult->second->Charge;
      Results.erase(OldestResult);
    } else if (OldestTrace != Traces.end()) {
      TotalBytes -= OldestTrace->second->Charge;
      Traces.erase(OldestTrace);
    } else {
      break; // Both maps empty; nothing left to shed.
    }
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void TraceCache::fillStats(ServeStats &Stats) const {
  Stats.TraceCacheHits = TraceHits.load(std::memory_order_relaxed);
  Stats.TraceCacheMisses = TraceMisses.load(std::memory_order_relaxed);
  Stats.ResultCacheHits = ResultHits.load(std::memory_order_relaxed);
  Stats.ResultCacheMisses = ResultMisses.load(std::memory_order_relaxed);
  Stats.CacheEvictions = Evictions.load(std::memory_order_relaxed);
  SharedMutexReadLock Lock(CacheMu);
  Stats.CachedTraces = Traces.size();
  Stats.CachedResults = Results.size();
  Stats.CacheBytes = TotalBytes;
}
