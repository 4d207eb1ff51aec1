//===- record/Preload.h - LD_PRELOAD recording runtime ---------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RecordRuntime glues the recorder together: the producer-side hooks
/// the interposition shim (record/PreloadShim.cpp) calls after each
/// real pthread operation, the per-thread ring registry, the lock/site
/// address-interning tables (record/RingBuffer.h), and the background
/// flusher thread that periodically drains every ring into the
/// streaming v3.1 translator (record/Flusher.h).
///
/// The class is instantiable: the preload shim owns one global
/// instance writing a file, runtime/Instrument.h's Recorder owns one
/// streaming into memory, and the differential and stress tests drive
/// instances directly — so the ring/flusher pipeline runs under the
/// plain/ASan/TSan ctest lanes where LD_PRELOAD interposition is
/// unavailable (TSan's own interceptors shadow the shim).
///
/// Lock hierarchy (all annotated, see docs/ARCHITECTURE.md):
///   FlushMu — serializes the flusher (drain loop, finalize) and the
///             stop flag; acquired before RegistryMu when the drain
///             loop snapshots the thread list.
///   RegistryMu — leaf; guards the thread-state list and the named
///             lock/site entries.  Producer hooks take it exactly once
///             per thread (registration).
/// The hook fast path takes no locks at all: TLS lookup, lock-free
/// interning, SPSC push.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_RECORD_PRELOAD_H
#define PERFPLAY_RECORD_PRELOAD_H

#include "record/Flusher.h"
#include "record/RingBuffer.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <pthread.h>
#include <string>
#include <vector>

namespace perfplay {
namespace record {

/// Recorder configuration.  The shim fills it from PERFPLAY_* env
/// vars; tests construct it directly.
struct RecordOptions {
  /// Final trace path.  Written as `<OutPath>.tmp` and renamed on a
  /// clean finalize.
  std::string OutPath;
  /// Optional key/value stats sidecar (the CLI wrapper reads it back).
  std::string StatsPath;
  /// Records per per-thread ring (rounded up to a power of two).
  size_t RingCapacity = 1u << 14;
  /// Lock / site interning-table capacities.
  size_t LockTableCapacity = 1u << 14;
  size_t SiteTableCapacity = 1u << 14;
  /// Target encoded chunk size for the v3 writer.
  size_t ChunkBytes = DefaultV3ChunkBytes;
  /// Background drain period.
  unsigned FlushIntervalMs = 5;
  /// Run at the start of the flusher thread; the shim uses it to set
  /// its thread-local reentrancy guard so the flusher's own locking is
  /// never recorded.
  std::function<void()> FlusherThreadInit;
};

/// What a recording run produced; written to the stats sidecar and
/// printed by `perfplay record`.
struct RecordSummary {
  bool Ok = false;
  std::string Error;
  std::string OutPath;
  uint32_t Threads = 0;
  /// Hook invocations that tried to record (== Records + Drops).
  uint64_t Attempts = 0;
  /// RawRecords that reached the flusher.
  uint64_t Records = 0;
  /// Records refused by a full ring or full registry — bounded loss,
  /// never a stall (the acceptance gate requires 0 at default sizes).
  uint64_t Drops = 0;
  uint64_t TraceEvents = 0;
  uint64_t Sections = 0;
  uint64_t SynthesizedReleases = 0;
  uint64_t UnmatchedReleases = 0;
};

/// The recorder runtime.  Producer hooks are safe from any thread and
/// lock-free after the thread's first call; finalize() (idempotent)
/// stops the flusher, drains every ring one last time and closes the
/// trace.  Threads should be quiescent by then — stragglers' records
/// after the final drain are lost with the process.
class RecordRuntime {
public:
  /// Records into `<Opts.OutPath>.tmp`, renamed into place by a clean
  /// finalize(), so a killed recorder never leaves a truncated file.
  explicit RecordRuntime(const RecordOptions &Opts);
  /// Records into \p Out instead of a file (Opts.OutPath is unused).
  RecordRuntime(const RecordOptions &Opts, TraceV3Writer::Sink Out);
  ~RecordRuntime();

  RecordRuntime(const RecordRuntime &) = delete;
  RecordRuntime &operator=(const RecordRuntime &) = delete;

  /// CLOCK_MONOTONIC in nanoseconds.
  static uint64_t nowNs();

  // -- Producer hooks (call after the real operation succeeded) -----
  void mutexAcquired(uintptr_t M, void *Site, uint64_t T0, uint64_t T1);
  void rwAcquired(uintptr_t L, bool Shared, void *Site, uint64_t T0,
                  uint64_t T1);
  void tryAcquire(uintptr_t L, bool Shared, bool Succeeded, void *Site,
                  uint64_t T0, uint64_t T1);
  void released(uintptr_t L, bool Rwlock, uint64_t Ts);
  void condWaited(uintptr_t C, uintptr_t M, void *Site, uint64_t T0,
                  uint64_t T1);
  void condSignaled(uintptr_t C, bool Broadcast, uint64_t Ts);

  // -- In-process recording (runtime/Instrument.h) -------------------
  /// Register a lock/condvar or a (deduplicated) code site by name;
  /// InvalidRecId when the table is full.
  uint32_t registerLock(std::string Name, bool IsSpin) EXCLUDES(RegistryMu);
  uint32_t registerSite(std::string File, std::string Function,
                        uint32_t BeginLine, uint32_t EndLine)
      EXCLUDES(RegistryMu);
  /// Registers the calling thread, charging its compute from now.
  uint32_t registerThread();
  /// Pushes a record the caller built for the calling thread.  Unlike
  /// the shim's hooks it waits for the flusher while the ring is full;
  /// only an invalid lock id or a push after finalize() drops.
  void pushRecord(const RawRecord &R);

  /// Stops the flusher, drains, frames threads, writes the footer and
  /// renames the trace into place.  Idempotent; later calls return the
  /// first result.  Also writes the stats sidecar when configured.
  RecordSummary finalize() EXCLUDES(FlushMu, RegistryMu);

  // -- fork() support (wired to pthread_atfork by the shim) ----------
  void prepareFork() ACQUIRE(FlushMu, RegistryMu);
  void parentAfterFork() RELEASE(FlushMu, RegistryMu);
  /// Re-initializes in the child: fresh rings and a fresh flusher
  /// writing to `<OutPath>.fork.<pid>`; sections the forking thread
  /// held across fork() surface as UnmatchedReleases in the child.
  void childAfterFork() RELEASE(FlushMu, RegistryMu);

private:
  /// The calling thread's state; registers on first use.  Null once
  /// finalized (hooks become no-ops).
  ThreadState *self() EXCLUDES(RegistryMu);
  void push(ThreadState &TS, const RawRecord &R);
  /// Starts a trace into \p Out, or into `<OutPath>.tmp` when \p Out
  /// is empty.
  void openTrace(TraceV3Writer::Sink Out) REQUIRES(FlushMu);
  /// Closes the `.tmp` file (if any): renamed into place when \p Ok,
  /// removed otherwise.  Returns whether the trace is in place.
  bool closeTrace(bool Ok, std::string &Err) REQUIRES(FlushMu);
  void startFlusherThread();
  void drainAllLocked() REQUIRES(FlushMu) EXCLUDES(RegistryMu);
  void flusherMain();
  static void *flusherTrampoline(void *Self);
  static void tlsDestructor(void *P);

  RecordOptions Opts;
  AddrTable Locks;
  AddrTable Sites;

  Mutex RegistryMu;
  std::vector<std::unique_ptr<ThreadState>> Threads GUARDED_BY(RegistryMu);
  /// Pre-fork thread states of the parent, kept alive in the child so
  /// finalize's teardown stays leak-free under LeakSanitizer.
  std::vector<std::unique_ptr<ThreadState>> Graveyard GUARDED_BY(RegistryMu);
  /// Named entries, interned in Locks/Sites by address (a deque never
  /// moves one); immutable, so the flusher reads them unlocked.
  std::deque<NamedLock> NamedLocks GUARDED_BY(RegistryMu);
  std::deque<NamedSite> NamedSites GUARDED_BY(RegistryMu);
  pthread_key_t TlsKey;

  Mutex FlushMu;
  CondVar FlushCv;
  bool StopFlusher GUARDED_BY(FlushMu) = false;
  std::unique_ptr<TraceFlusher> Flusher GUARDED_BY(FlushMu);
  /// The `.tmp` file of a file-backed recording (null for a caller's
  /// sink, or when it could not be opened: Flusher is null then).
  std::FILE *TmpFile GUARDED_BY(FlushMu) = nullptr;

  pthread_t FlushThread;
  bool FlushThreadRunning = false;

  std::atomic<bool> Finalized{false};
  Mutex SummaryMu;
  RecordSummary Summary GUARDED_BY(SummaryMu);
};

} // namespace record
} // namespace perfplay

#endif // PERFPLAY_RECORD_PRELOAD_H
