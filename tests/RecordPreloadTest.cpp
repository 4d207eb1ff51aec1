//===- tests/RecordPreloadTest.cpp - differential recorder tests -----------===//
//
// Proves the LD_PRELOAD pthread recorder by differential testing: the
// same deterministic two-thread workload runs (a) as a plain pthread
// program under libperfplay_preload.so in a forked subprocess and (b)
// in-process through runtime/Instrument.h's recording wrappers, and
// the two traces must agree on every structural profile — per-lock
// section shapes, per-thread section counts, nesting, try/rwlock/cond
// accounting, and the detector's ULCP verdict counts.
//
// The subprocess tests are skipped under sanitizers: TSan's own
// pthread interceptors shadow the preload shim, and ASan requires its
// runtime to lead LD_PRELOAD.  The gcc/clang build-test CI lanes run
// them; the in-process RecordRuntime half runs in every lane (see
// ConcurrencyStressTest.cpp for the ring/flusher stress properties).
//
//===----------------------------------------------------------------------===//

#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "record/Preload.h"
#include "runtime/Instrument.h"
#include "trace/Summary.h"
#include "trace/TraceIO.h"
#include "trace/TraceV3.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <dirent.h>
#include <cstdlib>
#include <map>
#include <semaphore.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

using namespace perfplay;
using record::RecordOptions;
using record::RecordRuntime;
using record::RecordSummary;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFPLAY_SANITIZER 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFPLAY_SANITIZER 1
#endif
#endif

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "perfplay_record_" + Name;
}

/// Forks \p Binary under the preload shim recording to \p Out.
/// Returns the child's exit code (-1 on abnormal termination).
int runUnderPreload(const char *Binary, const std::string &Out,
                    const std::string &Stats) {
  std::remove(Out.c_str());
  std::remove((Out + ".tmp").c_str());
  if (!Stats.empty())
    std::remove(Stats.c_str());
  pid_t Pid = fork();
  if (Pid == 0) {
    setenv("LD_PRELOAD", PERFPLAY_PRELOAD_LIB, 1);
    setenv("PERFPLAY_TRACE_OUT", Out.c_str(), 1);
    if (!Stats.empty())
      setenv("PERFPLAY_RECORD_STATS", Stats.c_str(), 1);
    unsetenv("PERFPLAY_RECORD_PID");
    execl(Binary, Binary, static_cast<char *>(nullptr));
    _exit(127);
  }
  int Status = 0;
  if (waitpid(Pid, &Status, 0) < 0)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::map<std::string, uint64_t> readStats(const std::string &Path) {
  std::map<std::string, uint64_t> Out;
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return Out;
  char Line[512];
  while (std::fgets(Line, sizeof(Line), F)) {
    std::string S(Line);
    size_t Space = S.find(' ');
    if (Space == std::string::npos)
      continue;
    Out[S.substr(0, Space)] =
        std::strtoull(S.c_str() + Space + 1, nullptr, 10);
  }
  std::fclose(F);
  return Out;
}

Trace load(const std::string &Path) {
  Expected<Trace> Tr = readTraceFile(Path);
  EXPECT_TRUE(Tr.ok()) << Tr.message();
  return Tr.ok() ? std::move(*Tr) : Trace();
}

/// Everything two recordings of the same workload must agree on.
/// Lock and thread identities differ between the recorders (addresses
/// vs chosen names), so per-entity data is compared as sorted
/// multisets.
struct TraceProfile {
  /// Per lock: exclusive sections, shared sections, failed trylocks.
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> PerLock;
  /// Per thread: critical sections opened.
  std::vector<uint64_t> PerThread;
  unsigned MaxNesting = 0;
  uint64_t TrySuccesses = 0, TryFailures = 0;
  uint64_t RwReads = 0, RwWrites = 0;
  uint64_t CondWaits = 0, CondSignals = 0;
  uint64_t NullLock = 0, ReadRead = 0, DisjointWrite = 0, Benign = 0,
           TrueContention = 0;
};

TraceProfile profileOf(const Trace &Tr) {
  TraceProfile P;
  CsIndex Index = CsIndex::build(Tr);
  DetectResult R = detectUlcps(Tr, Index, DetectOptions());

  std::map<LockId, std::tuple<uint64_t, uint64_t, uint64_t>> Locks;
  std::map<ThreadId, uint64_t> Threads;
  for (const CriticalSection &Cs : Index.all()) {
    if (Cs.Mode == AcquireMode::Shared)
      ++std::get<1>(Locks[Cs.Lock]);
    else
      ++std::get<0>(Locks[Cs.Lock]);
    ++Threads[Cs.Ref.Thread];
  }
  for (size_t L = 0; L != R.TryFailPerLock.size(); ++L)
    if (R.TryFailPerLock[L] != 0)
      std::get<2>(Locks[static_cast<LockId>(L)]) += R.TryFailPerLock[L];
  for (const auto &KV : Locks)
    P.PerLock.push_back(KV.second);
  std::sort(P.PerLock.begin(), P.PerLock.end());
  for (const auto &KV : Threads)
    P.PerThread.push_back(KV.second);
  std::sort(P.PerThread.begin(), P.PerThread.end());

  TraceSummary S = summarizeTrace(Tr);
  P.MaxNesting = S.MaxNesting;
  P.TrySuccesses = S.TrySuccesses;
  P.TryFailures = S.TryFailures;
  P.RwReads = S.RwReadAcquires;
  P.RwWrites = S.RwWriteAcquires;
  P.CondWaits = S.CondWaits;
  P.CondSignals = S.CondSignals;

  P.NullLock = R.Counts.NullLock;
  P.ReadRead = R.Counts.ReadRead;
  P.DisjointWrite = R.Counts.DisjointWrite;
  P.Benign = R.Counts.Benign;
  P.TrueContention = R.Counts.TrueContention;
  return P;
}

void expectSameProfile(const TraceProfile &A, const TraceProfile &B) {
  EXPECT_EQ(A.PerLock, B.PerLock);
  EXPECT_EQ(A.PerThread, B.PerThread);
  EXPECT_EQ(A.MaxNesting, B.MaxNesting);
  EXPECT_EQ(A.TrySuccesses, B.TrySuccesses);
  EXPECT_EQ(A.TryFailures, B.TryFailures);
  EXPECT_EQ(A.RwReads, B.RwReads);
  EXPECT_EQ(A.RwWrites, B.RwWrites);
  EXPECT_EQ(A.CondWaits, B.CondWaits);
  EXPECT_EQ(A.CondSignals, B.CondSignals);
  EXPECT_EQ(A.NullLock, B.NullLock);
  EXPECT_EQ(A.ReadRead, B.ReadRead);
  EXPECT_EQ(A.DisjointWrite, B.DisjointWrite);
  EXPECT_EQ(A.Benign, B.Benign);
  EXPECT_EQ(A.TrueContention, B.TrueContention);
}

/// The in-process twin of tests/fixtures/fixture_scripted.cpp: the
/// identical semaphore-sequenced script over runtime/Instrument.h
/// wrappers.  Keep the two in sync.
Trace recordMirrorScripted() {
  Recorder R;
  RecordingMutex M1(R, "M1");
  RecordingMutex MC(R, "MC");
  RecordingSharedMutex RW(R, "RW");
  RecordingCondition CV(R, "CV");
  sem_t S1, S2, S3, S4;
  sem_init(&S1, 0, 0);
  sem_init(&S2, 0, 0);
  sem_init(&S3, 0, 0);
  sem_init(&S4, 0, 0);
  bool Ready = false;

  std::thread T1([&]() NO_THREAD_SAFETY_ANALYSIS {
    ThreadId T = R.registerThread();
    M1.lock(T);
    sem_post(&S1);
    sem_wait(&S2);
    M1.unlock(T);

    RW.lock(T);
    RW.unlock(T);
    RW.lockShared(T);
    RW.unlockShared(T);

    sem_wait(&S4);
    if (M1.tryLock(T))
      M1.unlock(T);

    sem_wait(&S3);
    MC.lock(T);
    Ready = true;
    CV.notifyOne(T);
    MC.unlock(T);

    M1.lock(T);
    MC.lock(T);
    MC.unlock(T);
    M1.unlock(T);
  });
  std::thread T2([&]() NO_THREAD_SAFETY_ANALYSIS {
    ThreadId T = R.registerThread();
    sem_wait(&S1);
    if (M1.tryLock(T)) {
      ADD_FAILURE() << "trylock succeeded against a held lock";
      M1.unlock(T);
    }
    sem_post(&S2);

    M1.lock(T);
    M1.unlock(T);

    RW.lockShared(T);
    RW.unlockShared(T);
    sem_post(&S4);

    MC.lock(T);
    sem_post(&S3);
    CV.wait(MC, T, [&] { return Ready; });
    MC.unlock(T);
  });
  T1.join();
  T2.join();
  Expected<Trace> Tr = R.finish();
  EXPECT_TRUE(Tr.ok()) << Tr.message();
  return Tr.ok() ? std::move(*Tr) : Trace();
}

} // namespace

// -- Differential parity --------------------------------------------------

TEST(RecordPreloadTest, DifferentialParityWithInProcessRecorder) {
#ifdef PERFPLAY_SANITIZER
  GTEST_SKIP() << "LD_PRELOAD interposition unavailable under sanitizers";
#endif
  const std::string Out = tempPath("scripted.v3");
  const std::string Stats = Out + ".stats";
  ASSERT_EQ(runUnderPreload(PERFPLAY_FIXTURE_SCRIPTED, Out, Stats), 0);

  auto S = readStats(Stats);
  EXPECT_EQ(S["ok"], 1u);
  EXPECT_EQ(S["drops"], 0u);
  EXPECT_EQ(S["attempts"], S["records"] + S["drops"]);
  EXPECT_EQ(S["synth_releases"], 0u);
  EXPECT_EQ(S["unmatched_releases"], 0u);

  Trace Preload = load(Out);
  Trace Mirror = recordMirrorScripted();
  expectSameProfile(profileOf(Preload), profileOf(Mirror));

  // The script pins the verdicts, so assert them absolutely as well:
  // seven null-locks, one reader-reader pair, one cond-ordered true
  // contention.
  TraceProfile P = profileOf(Preload);
  EXPECT_EQ(P.NullLock, 7u);
  EXPECT_EQ(P.ReadRead, 1u);
  EXPECT_EQ(P.TrueContention, 1u);
  EXPECT_EQ(P.MaxNesting, 2u);
}

// -- Real workload recordings --------------------------------------------

TEST(RecordPreloadTest, PipelineFixtureYieldsNullLockVerdicts) {
#ifdef PERFPLAY_SANITIZER
  GTEST_SKIP() << "LD_PRELOAD interposition unavailable under sanitizers";
#endif
  const std::string Out = tempPath("pipeline.v3");
  const std::string Stats = Out + ".stats";
  ASSERT_EQ(runUnderPreload(PERFPLAY_FIXTURE_PIPELINE, Out, Stats), 0);
  auto S = readStats(Stats);
  EXPECT_EQ(S["ok"], 1u);
  EXPECT_EQ(S["drops"], 0u);

  Trace Tr = load(Out);
  TraceSummary Sum = summarizeTrace(Tr);
  EXPECT_EQ(Sum.NumThreads, 4u); // producer + 3 consumers
  EXPECT_GT(Sum.NumCriticalSections, 0u);
  EXPECT_GT(Sum.CondWaits + Sum.CondSignals, 0u);

  // The queue mutex guards disjoint slots and the trace carries no
  // access sets, so cross-thread pairs that are not cond-ordered are
  // exactly the paper's pbzip2 shape: NullLock ULCPs.
  TraceProfile P = profileOf(Tr);
  EXPECT_GT(P.NullLock, 0u);
  EXPECT_GT(P.TrueContention, 0u); // wait/signal ordering edges
}

TEST(RecordPreloadTest, RwCacheFixtureYieldsReadReadVerdicts) {
#ifdef PERFPLAY_SANITIZER
  GTEST_SKIP() << "LD_PRELOAD interposition unavailable under sanitizers";
#endif
  const std::string Out = tempPath("rwcache.v3");
  const std::string Stats = Out + ".stats";
  ASSERT_EQ(runUnderPreload(PERFPLAY_FIXTURE_RWCACHE, Out, Stats), 0);
  auto S = readStats(Stats);
  EXPECT_EQ(S["ok"], 1u);
  EXPECT_EQ(S["drops"], 0u);

  Trace Tr = load(Out);
  TraceSummary Sum = summarizeTrace(Tr);
  EXPECT_EQ(Sum.NumThreads, 5u); // 4 readers + 1 writer
  EXPECT_GT(Sum.RwReadAcquires, 0u);
  EXPECT_GT(Sum.RwWriteAcquires, 0u);

  TraceProfile P = profileOf(Tr);
  EXPECT_GT(P.ReadRead, 0u);
}

TEST(RecordPreloadTest, NoLockFixtureRoundTripsEmptyTrace) {
#ifdef PERFPLAY_SANITIZER
  GTEST_SKIP() << "LD_PRELOAD interposition unavailable under sanitizers";
#endif
  const std::string Out = tempPath("nolocks.v3");
  const std::string Stats = Out + ".stats";
  ASSERT_EQ(runUnderPreload(PERFPLAY_FIXTURE_NOLOCKS, Out, Stats), 0);
  auto S = readStats(Stats);
  EXPECT_EQ(S["ok"], 1u);
  EXPECT_EQ(S["sections"], 0u);

  // Threads that never touch a lock never register, so the trace is
  // structurally valid and empty.
  Trace Tr = load(Out);
  EXPECT_EQ(summarizeTrace(Tr).NumCriticalSections, 0u);
}

// A recorded program that forks keeps its own trace: the child's copy
// of the recorder must neither flush the parent's buffered bytes into
// the shared `.tmp` nor remove it.
TEST(RecordPreloadTest, ForkingProgramKeepsParentTrace) {
#ifdef PERFPLAY_SANITIZER
  GTEST_SKIP() << "LD_PRELOAD interposition unavailable under sanitizers";
#endif
  const std::string Out = tempPath("fork.v3");
  const std::string Stats = Out + ".stats";
  ASSERT_EQ(runUnderPreload(PERFPLAY_FIXTURE_FORK, Out, Stats), 0);
  auto S = readStats(Stats);
  EXPECT_EQ(S["ok"], 1u);
  EXPECT_EQ(S["drops"], 0u);
  EXPECT_EQ(S["sections"], 2010u);

  Trace Tr = load(Out);
  EXPECT_EQ(summarizeTrace(Tr).NumCriticalSections, 2010u);

  // The child _exit()s unfinalized, leaving `<out>.fork.<pid>.tmp`.
  std::remove(Out.c_str());
  std::remove(Stats.c_str());
  const std::string Dir = testing::TempDir();
  const std::string Child = "perfplay_record_fork.v3.fork.";
  if (DIR *D = opendir(Dir.c_str())) {
    while (dirent *E = readdir(D))
      if (std::string(E->d_name).rfind(Child, 0) == 0)
        std::remove((Dir + E->d_name).c_str());
    closedir(D);
  }
}

// -- CLI wrapper ----------------------------------------------------------

TEST(RecordPreloadTest, CliRecordEndToEnd) {
#ifdef PERFPLAY_SANITIZER
  GTEST_SKIP() << "LD_PRELOAD interposition unavailable under sanitizers";
#endif
  const std::string Out = tempPath("cli.v3");
  std::remove(Out.c_str());
  pid_t Pid = fork();
  if (Pid == 0) {
    execl(PERFPLAY_CLI, PERFPLAY_CLI, "record", "-o", Out.c_str(),
          "--preload-lib", PERFPLAY_PRELOAD_LIB, "--fail-on-drops",
          "--require-sections", "--quiet", "--", PERFPLAY_FIXTURE_PIPELINE,
          static_cast<char *>(nullptr));
    _exit(127);
  }
  int Status = 0;
  ASSERT_GE(waitpid(Pid, &Status, 0), 0);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);

  Trace Tr = load(Out);
  EXPECT_GT(summarizeTrace(Tr).NumCriticalSections, 0u);
}

// -- In-process runtime (runs in every lane, sanitizers included) ---------

TEST(RecordPreloadTest, InProcessRuntimeRecordsScriptedHookStream) {
  const std::string Out = tempPath("inproc.v3");
  RecordOptions Opts;
  Opts.OutPath = Out;
  RecordRuntime RT(Opts);

  // One thread, two locks, strict nesting — the simplest hook stream.
  const uintptr_t A = 0x1000, B = 0x2000;
  uint64_t Ts = 1000;
  RT.mutexAcquired(A, nullptr, Ts, Ts + 10);
  RT.mutexAcquired(B, nullptr, Ts + 20, Ts + 30);
  RT.released(B, false, Ts + 40);
  RT.released(A, false, Ts + 50);
  RT.tryAcquire(A, false, false, nullptr, Ts + 60, Ts + 61);

  RecordSummary S = RT.finalize();
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.Threads, 1u);
  EXPECT_EQ(S.Attempts, 5u);
  EXPECT_EQ(S.Drops, 0u);
  EXPECT_EQ(S.Records, 5u);
  EXPECT_EQ(S.Sections, 2u);

  Trace Tr = load(Out);
  TraceSummary Sum = summarizeTrace(Tr);
  EXPECT_EQ(Sum.NumThreads, 1u);
  EXPECT_EQ(Sum.NumCriticalSections, 2u);
  EXPECT_EQ(Sum.MaxNesting, 2u);
  EXPECT_EQ(Sum.TryFailures, 1u);
}

TEST(RecordPreloadTest, NonLifoUnlockIsFixedUpWithSynthesizedReleases) {
  const std::string Out = tempPath("nonlifo.v3");
  RecordOptions Opts;
  Opts.OutPath = Out;
  RecordRuntime RT(Opts);

  // Hand-over-hand: acquire A, acquire B, release A (non-LIFO), then
  // release B.  The flusher must synthesize a release/reopen of B.
  const uintptr_t A = 0x1000, B = 0x2000;
  RT.mutexAcquired(A, nullptr, 100, 110);
  RT.mutexAcquired(B, nullptr, 120, 130);
  RT.released(A, false, 140);
  RT.released(B, false, 150);
  // And a release with no recorded open: must be suppressed.
  RT.released(0x3000, false, 160);

  RecordSummary S = RT.finalize();
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_GT(S.SynthesizedReleases, 0u);
  EXPECT_EQ(S.UnmatchedReleases, 1u);

  // Despite the fixups the trace must be structurally valid.
  Trace Tr = load(Out);
  EXPECT_EQ(summarizeTrace(Tr).NumThreads, 1u);
}

TEST(RecordPreloadTest, FinalizeIsIdempotentAndFramesSilentThreads) {
  const std::string Out = tempPath("idempotent.v3");
  RecordOptions Opts;
  Opts.OutPath = Out;
  RecordRuntime RT(Opts);
  RT.mutexAcquired(0x1000, nullptr, 100, 110);
  // Leave the lock held: finalize must close the dangling section.
  RecordSummary S1 = RT.finalize();
  RecordSummary S2 = RT.finalize();
  ASSERT_TRUE(S1.Ok) << S1.Error;
  EXPECT_EQ(S1.Records, S2.Records);
  EXPECT_EQ(S1.OutPath, S2.OutPath);
  EXPECT_GT(S1.SynthesizedReleases, 0u);
  Trace Tr = load(Out);
  EXPECT_EQ(summarizeTrace(Tr).NumCriticalSections, 1u);
}

TEST(RecordPreloadTest, ReturnAddressesDescribeToModuleNames) {
  std::string File, Function;
  record::describeReturnAddress(
      reinterpret_cast<uintptr_t>(&record::describeReturnAddress), File,
      Function);
  // Static binary, non-exported local symbol or not: either way both
  // strings must be non-empty and the file must name this test binary.
  EXPECT_FALSE(File.empty());
  EXPECT_FALSE(Function.empty());
}
