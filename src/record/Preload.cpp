//===- record/Preload.cpp - LD_PRELOAD recording runtime ------------------===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "record/Preload.h"

#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <sched.h>
#include <unistd.h>

namespace perfplay {
namespace record {

uint64_t RecordRuntime::nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

RecordRuntime::RecordRuntime(const RecordOptions &O)
    : RecordRuntime(O, nullptr) {}

RecordRuntime::RecordRuntime(const RecordOptions &O, TraceV3Writer::Sink Out)
    : Opts(O), Locks(O.LockTableCapacity), Sites(O.SiteTableCapacity) {
  pthread_key_create(&TlsKey, &RecordRuntime::tlsDestructor);
  {
    MutexLock L(FlushMu);
    openTrace(std::move(Out));
  }
  startFlusherThread();
}

void RecordRuntime::openTrace(TraceV3Writer::Sink Out) {
  if (!Out) {
    const std::string Tmp = Opts.OutPath + ".tmp";
    TmpFile = std::fopen(Tmp.c_str(), "wb");
    if (!TmpFile) {
      Flusher.reset();
      return;
    }
    Out = [F = TmpFile](const void *Data, size_t Size) {
      return Size == 0 || std::fwrite(Data, 1, Size, F) == Size;
    };
  }
  Flusher = std::make_unique<TraceFlusher>(std::move(Out), Opts.ChunkBytes);
}

bool RecordRuntime::closeTrace(bool Ok, std::string &Err) {
  if (!TmpFile)
    return Ok;
  const std::string Tmp = Opts.OutPath + ".tmp";
  if (std::fclose(TmpFile) != 0 && Ok) {
    Ok = false;
    Err = "write to '" + Tmp + "' failed on close";
  }
  TmpFile = nullptr;
  if (Ok && std::rename(Tmp.c_str(), Opts.OutPath.c_str()) != 0) {
    Ok = false;
    Err = "cannot rename '" + Tmp + "' to '" + Opts.OutPath + "'";
  }
  if (!Ok)
    std::remove(Tmp.c_str());
  return Ok;
}

RecordRuntime::~RecordRuntime() {
  finalize();
  pthread_key_delete(TlsKey);
}

void *RecordRuntime::flusherTrampoline(void *Self) {
  static_cast<RecordRuntime *>(Self)->flusherMain();
  return nullptr;
}

void RecordRuntime::startFlusherThread() {
  FlushThreadRunning =
      pthread_create(&FlushThread, nullptr, &RecordRuntime::flusherTrampoline,
                     this) == 0;
}

void RecordRuntime::flusherMain() {
  if (Opts.FlusherThreadInit)
    Opts.FlusherThreadInit();
  MutexLock L(FlushMu);
  while (!StopFlusher) {
    FlushCv.waitFor(FlushMu, std::chrono::milliseconds(Opts.FlushIntervalMs));
    if (StopFlusher)
      break;
    drainAllLocked();
  }
}

void RecordRuntime::drainAllLocked() {
  if (!Flusher)
    return;
  std::vector<ThreadState *> Snap;
  {
    MutexLock L(RegistryMu);
    Snap.reserve(Threads.size());
    for (const auto &T : Threads)
      Snap.push_back(T.get());
  }
  for (ThreadState *TS : Snap)
    Flusher->drain(*TS, Locks, Sites);
}

void RecordRuntime::tlsDestructor(void *P) {
  // The owning thread is exiting; there may never be another chance to
  // frame its stream, so the end marker rides the ring like any event.
  auto *TS = static_cast<ThreadState *>(P);
  RawRecord R;
  R.Op = RecOp::ThreadEnd;
  R.T0 = R.T1 = nowNs();
  TS->Attempts.fetch_add(1, std::memory_order_relaxed);
  if (!TS->Ring.push(R))
    TS->Drops.fetch_add(1, std::memory_order_relaxed);
}

ThreadState *RecordRuntime::self() {
  if (Finalized.load(std::memory_order_acquire))
    return nullptr;
  auto *TS = static_cast<ThreadState *>(pthread_getspecific(TlsKey));
  if (TS)
    return TS;
  // Zeroing the ring is the slow part of registration: do it before
  // taking the lock that other threads' registrations wait on.
  auto Fresh = std::make_unique<ThreadState>(Opts.RingCapacity);
  MutexLock L(RegistryMu);
  Fresh->Id = static_cast<uint32_t>(Threads.size());
  TS = Fresh.get();
  Threads.push_back(std::move(Fresh));
  pthread_setspecific(TlsKey, TS);
  return TS;
}

void RecordRuntime::push(ThreadState &TS, const RawRecord &R) {
  TS.Attempts.fetch_add(1, std::memory_order_relaxed);
  if (R.Lock == InvalidRecId || !TS.Ring.push(R))
    TS.Drops.fetch_add(1, std::memory_order_relaxed);
}

void RecordRuntime::mutexAcquired(uintptr_t M, void *Site, uint64_t T0,
                                  uint64_t T1) {
  ThreadState *TS = self();
  if (!TS)
    return;
  RawRecord R;
  R.Op = RecOp::MutexAcquire;
  R.Lock = Locks.intern(M, LockTagMutex);
  R.Site = Site ? Sites.intern(reinterpret_cast<uintptr_t>(Site), 0)
                : InvalidRecId;
  R.T0 = T0;
  R.T1 = T1;
  push(*TS, R);
}

void RecordRuntime::rwAcquired(uintptr_t L, bool Shared, void *Site,
                               uint64_t T0, uint64_t T1) {
  ThreadState *TS = self();
  if (!TS)
    return;
  RawRecord R;
  R.Op = Shared ? RecOp::RwAcquireRead : RecOp::RwAcquireWrite;
  R.Lock = Locks.intern(L, LockTagRwlock);
  R.Site = Site ? Sites.intern(reinterpret_cast<uintptr_t>(Site), 0)
                : InvalidRecId;
  R.T0 = T0;
  R.T1 = T1;
  push(*TS, R);
}

void RecordRuntime::tryAcquire(uintptr_t L, bool Shared, bool Succeeded,
                               void *Site, uint64_t T0, uint64_t T1) {
  ThreadState *TS = self();
  if (!TS)
    return;
  RawRecord R;
  R.Op = RecOp::TryAcquire;
  R.Flags = static_cast<uint8_t>((Succeeded ? RecFlagTrySucceeded : 0) |
                                 (Shared ? RecFlagShared : 0));
  R.Lock = Locks.intern(L, Shared ? LockTagRwlock : LockTagMutex);
  R.Site = Site ? Sites.intern(reinterpret_cast<uintptr_t>(Site), 0)
                : InvalidRecId;
  R.T0 = T0;
  R.T1 = T1;
  push(*TS, R);
}

void RecordRuntime::released(uintptr_t L, bool Rwlock, uint64_t Ts) {
  ThreadState *TS = self();
  if (!TS)
    return;
  RawRecord R;
  R.Op = RecOp::Release;
  R.Lock = Locks.intern(L, Rwlock ? LockTagRwlock : LockTagMutex);
  R.T0 = R.T1 = Ts;
  push(*TS, R);
}

void RecordRuntime::condWaited(uintptr_t C, uintptr_t M, void *Site,
                               uint64_t T0, uint64_t T1) {
  ThreadState *TS = self();
  if (!TS)
    return;
  RawRecord R;
  R.Op = RecOp::CondWait;
  R.Lock = Locks.intern(C, LockTagCond);
  R.Lock2 = Locks.intern(M, LockTagMutex);
  R.Site = Site ? Sites.intern(reinterpret_cast<uintptr_t>(Site), 0)
                : InvalidRecId;
  R.T0 = T0;
  R.T1 = T1;
  if (R.Lock2 == InvalidRecId)
    R.Lock = InvalidRecId; // Count the whole dance as one drop.
  push(*TS, R);
}

void RecordRuntime::condSignaled(uintptr_t C, bool Broadcast, uint64_t Ts) {
  ThreadState *TS = self();
  if (!TS)
    return;
  RawRecord R;
  R.Op = Broadcast ? RecOp::CondBroadcast : RecOp::CondSignal;
  R.Lock = Locks.intern(C, LockTagCond);
  R.T0 = R.T1 = Ts;
  push(*TS, R);
}

uint32_t RecordRuntime::registerLock(std::string Name, bool IsSpin) {
  MutexLock L(RegistryMu);
  NamedLocks.push_back(NamedLock{std::move(Name), IsSpin});
  return Locks.intern(reinterpret_cast<uintptr_t>(&NamedLocks.back()),
                      LockTagNamed);
}

uint32_t RecordRuntime::registerSite(std::string File, std::string Function,
                                     uint32_t BeginLine, uint32_t EndLine) {
  MutexLock L(RegistryMu);
  for (const NamedSite &S : NamedSites)
    if (S.BeginLine == BeginLine && S.EndLine == EndLine &&
        S.File == File && S.Function == Function)
      return Sites.intern(reinterpret_cast<uintptr_t>(&S), SiteTagNamed);
  NamedSites.push_back(
      NamedSite{std::move(File), std::move(Function), BeginLine, EndLine});
  return Sites.intern(reinterpret_cast<uintptr_t>(&NamedSites.back()),
                      SiteTagNamed);
}

uint32_t RecordRuntime::registerThread() {
  ThreadState *TS = self();
  if (!TS)
    return InvalidRecId;
  RawRecord R;
  R.Op = RecOp::ThreadStart;
  R.T0 = R.T1 = nowNs();
  pushRecord(R);
  return TS->Id;
}

void RecordRuntime::pushRecord(const RawRecord &R) {
  ThreadState *TS = self();
  if (!TS)
    return;
  TS->Attempts.fetch_add(1, std::memory_order_relaxed);
  bool Pushed = !(carriesLock(R.Op) && R.Lock == InvalidRecId);
  while (Pushed && !TS->Ring.push(R)) {
    // Lossless: the flusher drains within one interval.  After the
    // final drain nothing will, so the record is dropped instead.
    if (Finalized.load(std::memory_order_acquire))
      Pushed = false;
    else
      sched_yield();
  }
  if (!Pushed)
    TS->Drops.fetch_add(1, std::memory_order_relaxed);
}

namespace {

void writeStatsFile(const std::string &Path, const RecordSummary &S) {
  if (Path.empty())
    return;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  std::fprintf(F, "ok %d\n", S.Ok ? 1 : 0);
  std::fprintf(F, "out %s\n", S.OutPath.c_str());
  std::fprintf(F, "threads %" PRIu32 "\n", S.Threads);
  std::fprintf(F, "attempts %" PRIu64 "\n", S.Attempts);
  std::fprintf(F, "records %" PRIu64 "\n", S.Records);
  std::fprintf(F, "drops %" PRIu64 "\n", S.Drops);
  std::fprintf(F, "trace_events %" PRIu64 "\n", S.TraceEvents);
  std::fprintf(F, "sections %" PRIu64 "\n", S.Sections);
  std::fprintf(F, "synth_releases %" PRIu64 "\n", S.SynthesizedReleases);
  std::fprintf(F, "unmatched_releases %" PRIu64 "\n", S.UnmatchedReleases);
  if (!S.Ok)
    std::fprintf(F, "error %s\n", S.Error.c_str());
  std::fclose(F);
}

} // namespace

RecordSummary RecordRuntime::finalize() {
  MutexLock SL(SummaryMu);
  if (Finalized.load(std::memory_order_acquire))
    return Summary;
  // New hook calls become no-ops; threads already inside a hook can
  // still push until the final drain below.
  Finalized.store(true, std::memory_order_release);
  {
    MutexLock L(FlushMu);
    StopFlusher = true;
  }
  FlushCv.notifyAll();
  if (FlushThreadRunning) {
    pthread_join(FlushThread, nullptr);
    FlushThreadRunning = false;
  }
  RecordSummary S;
  S.OutPath = Opts.OutPath;
  {
    MutexLock L(FlushMu);
    drainAllLocked();
    {
      MutexLock RL(RegistryMu);
      S.Threads = static_cast<uint32_t>(Threads.size());
      for (const auto &T : Threads) {
        S.Attempts += T->Attempts.load(std::memory_order_relaxed);
        S.Drops += T->Drops.load(std::memory_order_relaxed);
      }
    }
    std::string Err;
    if (!Flusher)
      Err = "cannot open '" + Opts.OutPath + ".tmp' for writing";
    S.Ok = Flusher && Flusher->finalize(S.Threads, Locks, Sites, Err);
    S.Ok = closeTrace(S.Ok, Err);
    S.Error = Err;
    if (Flusher) {
      const FlushStats &FS = Flusher->stats();
      S.Records = FS.Records;
      S.TraceEvents = FS.TraceEvents;
      S.Sections = FS.Sections;
      S.SynthesizedReleases = FS.SynthesizedReleases;
      S.UnmatchedReleases = FS.UnmatchedReleases;
    }
  }
  writeStatsFile(Opts.StatsPath, S);
  Summary = S;
  return Summary;
}

void RecordRuntime::prepareFork() {
  FlushMu.lock();
  RegistryMu.lock();
}

void RecordRuntime::parentAfterFork() {
  RegistryMu.unlock();
  FlushMu.unlock();
}

void RecordRuntime::childAfterFork() {
  // Both mutexes were held across fork(), so the child's copies are in
  // a consistent (locked) state; the flusher thread itself did not
  // survive, and its pending work belongs to the parent.
  FlushThreadRunning = false;
  StopFlusher = false;
  Opts.OutPath += ".fork." + std::to_string(getpid());
  Opts.StatsPath.clear(); // Only the root process reports stats.
  if (TmpFile) {
    // The parent's stream: drop this copy's buffered bytes (closing
    // the descriptor first keeps fclose from flushing them into the
    // parent's file) and leave its `.tmp` for the parent to finish.
    close(fileno(TmpFile));
    std::fclose(TmpFile);
    TmpFile = nullptr;
  }
  openTrace(nullptr);
  // Retire the parent's thread states (only this thread exists now);
  // keeping them owned means teardown stays leak-free.
  for (auto &T : Threads)
    Graveyard.push_back(std::move(T));
  Threads.clear();
  pthread_setspecific(TlsKey, nullptr);
  RegistryMu.unlock();
  FlushMu.unlock();
  startFlusherThread();
}

} // namespace record
} // namespace perfplay
