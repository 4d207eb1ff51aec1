//===- bench/micro_detect_throughput.cpp - detection throughput -------------===//
//
// Measures ULCP detection throughput (classified pairs per second) on a
// lock-heavy workload: one counts-only detectUlcps, every pair
// classified.  Emits BENCH_detect.json for CI tracking alongside a
// human-readable line.
//
// A second corpus — the synthetic rwmix application (shared rwlock
// sections, failed trylocks, condvar hand-offs) — times detection over
// the extended event vocabulary and records the per-kind verdict split
// in an "rwlock" block: reader-reader pairs must classify as ReadRead
// by the static shared-shared rule (never reaching replay), failed
// tries must surface as try_fail_edges, and condvar-ordered pairs as
// TrueContention.  The run exits non-zero if that corpus yields no
// reader-reader pairs or no failed tries.
//
// Usage:
//   bench_micro_detect_throughput [--app NAME] [--threads N] [--scale S]
//                                 [--repeat K] [--out FILE] [--no-rwlock]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "detect/SectionKey.h"
#include "sim/Replayer.h"
#include "trace/TraceBuilder.h"
#include "workloads/WorkloadSpec.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace perfplay;

namespace {

/// The default bench workload: one hot lock hammered by every thread,
/// with section bodies drawn from a small set of code-site patterns —
/// the structure Table 2 reports for real applications, where a few
/// static ULCP groups cover thousands of dynamic pairs (e.g. pbzip2:
/// 4 groups, ULCP_1 at 59%).  Pattern pairs span every classification:
/// redundant flag stores and commutative adds/ors (Benign, replayed),
/// store-vs-read (TrueContention, replayed), read-only stats (RR),
/// and per-thread slots (DisjointWrite).
Trace makeLockHeavyTrace(unsigned Threads, unsigned PerThread) {
  enum : AddrId { Flag = 1, Bits = 2, Counter = 3, Stats = 4, Slots = 100 };
  TraceBuilder B;
  LockId Mu = B.addLock("hot_mu");
  std::vector<CodeSiteId> Sites;
  for (unsigned P = 0; P != 8; ++P)
    Sites.push_back(B.addSite("hot.cc", "pattern" + std::to_string(P),
                              10 * P, 10 * P + 9));
  std::vector<ThreadId> Ids;
  for (unsigned T = 0; T != Threads; ++T)
    Ids.push_back(B.addThread());

  auto Body = [&](ThreadId T, unsigned Pattern) {
    switch (Pattern) {
    case 0: // Redundant flag publication.
      for (unsigned K = 0; K != 4; ++K)
        B.write(T, Flag + 10 * K, 1);
      break;
    case 1: // Flag polling: conflicts with pattern 0.
      for (unsigned K = 0; K != 4; ++K)
        B.read(T, Flag + 10 * K, 0);
      B.read(T, Stats, 0);
      break;
    case 2: // Disjoint bit manipulation (benign vs 2 and 3).
      for (unsigned K = 0; K != 4; ++K)
        B.write(T, Bits + K, 0x01, WriteOpKind::Or);
      break;
    case 3:
      for (unsigned K = 0; K != 4; ++K)
        B.write(T, Bits + K, 0x10, WriteOpKind::Or);
      break;
    case 4: // Blind commutative counters (benign vs 4 and 5).
      for (unsigned K = 0; K != 4; ++K)
        B.write(T, Counter + K, 7, WriteOpKind::Add);
      break;
    case 5:
      for (unsigned K = 0; K != 4; ++K)
        B.write(T, Counter + K, 9, WriteOpKind::Add);
      break;
    case 6: // Read-only statistics (RR).
      for (unsigned K = 0; K != 6; ++K)
        B.read(T, Stats + K, 0);
      break;
    default: // Per-thread slot (DisjointWrite across threads).
      B.write(T, Slots + 8 * T, T + 1);
      B.write(T, Slots + 8 * T + 1, T + 1, WriteOpKind::Add);
      break;
    }
  };

  for (unsigned I = 0; I != PerThread; ++I)
    for (unsigned T = 0; T != Threads; ++T) {
      B.compute(Ids[T], 50);
      B.beginCs(Ids[T], Mu, Sites[I % 8]);
      Body(Ids[T], I % 8);
      B.endCs(Ids[T]);
    }
  return B.finish();
}

/// Times \p Repeat counts-only AllCrossThread detections of \p Tr and
/// returns the seconds of one, with the last run's result in \p Out.
double timeDetect(const Trace &Tr, const CsIndex &Index, unsigned Repeat,
                  DetectResult &Out) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  // Counts-only keeps the O(n^2) pair vector out of the measurement:
  // the bench times classification, not vector growth.
  Opts.CountsOnly = true;
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Repeat; ++I)
    Out = detectUlcps(Tr, Index, Opts);
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count() / Repeat;
}

double pairsPerSec(const DetectResult &R, double Seconds) {
  return Seconds > 0.0 ? static_cast<double>(R.Counts.total()) / Seconds
                       : 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchArgs Args(Argc, Argv,
                        {"--app", "--threads", "--scale", "--repeat", "--out"},
                        {"--no-rwlock"});
  std::string AppName = Args.option("--app", "lockheavy");
  unsigned Threads = static_cast<unsigned>(
      std::atoi(Args.option("--threads", "4").c_str()));
  double Scale = std::atof(Args.option("--scale", "1.0").c_str());
  unsigned Repeat = static_cast<unsigned>(
      std::atoi(Args.option("--repeat", "3").c_str()));
  std::string Out = Args.option("--out", "BENCH_detect.json");
  bool NoRwlock = Args.flag("--no-rwlock");
  if (Repeat == 0)
    Repeat = 1;

  Trace Tr;
  if (AppName == "lockheavy") {
    Tr = makeLockHeavyTrace(
        Threads, static_cast<unsigned>(250 * Scale));
  } else {
    const AppModel *App = bench::findApp(AppName);
    if (!App) {
      std::fprintf(stderr, "unknown app '%s'\n", AppName.c_str());
      return 1;
    }
    Tr = generateWorkload(App->Factory(Threads, Scale));
  }
  recordGrantSchedule(Tr, 42);
  CsIndex Index = CsIndex::build(Tr);

  DetectResult Det;
  const double Seconds = timeDetect(Tr, Index, Repeat, Det);
  const double PairsPerSec = pairsPerSec(Det, Seconds);
  // Distinct section keys describe the corpus (how often section bodies
  // repeat); detection itself classifies every pair.
  const uint32_t NumKeys = internSectionKeys(Tr, Index).NumKeys;
  std::printf("detect throughput: %s @%u threads, scale %.2f — %zu "
              "sections, %llu pairs, %u distinct keys\n"
              "  %8.3f ms  %12.0f pairs/s\n",
              AppName.c_str(), Threads, Scale, Index.size(),
              static_cast<unsigned long long>(Det.Counts.total()), NumKeys,
              Seconds * 1e3, PairsPerSec);

  // Rwlock-heavy corpus: the extended vocabulary (shared sections,
  // failed trylocks, condvar ordering) through the same detector.
  struct {
    bool Ran = false;
    size_t Sections = 0;
    double Seconds = 0.0;
    double PairsPerSec = 0.0;
    UlcpCounts Counts;
    uint64_t TryFailEdges = 0;
  } Rw;
  if (!NoRwlock) {
    const AppModel *RwApp = bench::findApp("rwmix");
    if (!RwApp) {
      std::fprintf(stderr, "FATAL: synthetic app 'rwmix' not registered\n");
      return 1;
    }
    Trace RwTr = generateWorkload(RwApp->Factory(4, Scale));
    recordGrantSchedule(RwTr, 42);
    CsIndex RwIndex = CsIndex::build(RwTr);
    DetectResult RwR;
    Rw.Ran = true;
    Rw.Sections = RwIndex.size();
    Rw.Seconds = timeDetect(RwTr, RwIndex, Repeat, RwR);
    Rw.Counts = RwR.Counts;
    Rw.TryFailEdges = RwR.TryFailEdges;
    Rw.PairsPerSec = pairsPerSec(RwR, Rw.Seconds);
    std::printf("rwlock corpus: rwmix @4 threads — %zu sections, %llu "
                "pairs (RR=%llu true=%llu), %llu failed tries, "
                "%.3f ms\n",
                Rw.Sections,
                static_cast<unsigned long long>(Rw.Counts.total()),
                static_cast<unsigned long long>(Rw.Counts.ReadRead),
                static_cast<unsigned long long>(Rw.Counts.TrueContention),
                static_cast<unsigned long long>(Rw.TryFailEdges),
                Rw.Seconds * 1e3);
    // The corpus exists to exercise the extended kinds; a run with no
    // shared-section pairs or no trylock witnesses means the generator
    // regressed, not that detection got faster.
    if (Rw.Counts.ReadRead == 0 || Rw.TryFailEdges == 0) {
      std::fprintf(stderr, "FATAL: rwmix corpus produced no "
                           "reader-reader pairs or no failed tries\n");
      return 1;
    }
  }

  FILE *F = std::fopen(Out.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Out.c_str());
    return 1;
  }
  std::fprintf(F,
               "{\n"
               "  \"bench\": \"micro_detect_throughput\",\n"
               "  \"workload\": {\"app\": \"%s\", \"threads\": %u, "
               "\"scale\": %.3f},\n"
               "  \"sections\": %zu,\n"
               "  \"pairs\": %llu,\n"
               "  \"distinct_section_keys\": %u,\n"
               "  \"repeat\": %u,\n"
               "  \"seconds\": %.6f,\n"
               "  \"pairs_per_sec\": %.1f,\n"
               "  \"classified\": %llu",
               AppName.c_str(), Threads, Scale, Index.size(),
               static_cast<unsigned long long>(Det.Counts.total()), NumKeys,
               Repeat, Seconds, PairsPerSec,
               static_cast<unsigned long long>(Det.Stats.NumClassified));
  if (Rw.Ran)
    std::fprintf(F,
                 ",\n  \"rwlock\": {\"app\": \"rwmix\", \"threads\": 4, "
                 "\"sections\": %zu, \"seconds\": %.6f, "
                 "\"pairs_per_sec\": %.1f, \"pairs\": %llu, "
                 "\"read_read\": %llu, \"true_contention\": %llu, "
                 "\"try_fail_edges\": %llu}",
                 Rw.Sections, Rw.Seconds, Rw.PairsPerSec,
                 static_cast<unsigned long long>(Rw.Counts.total()),
                 static_cast<unsigned long long>(Rw.Counts.ReadRead),
                 static_cast<unsigned long long>(Rw.Counts.TrueContention),
                 static_cast<unsigned long long>(Rw.TryFailEdges));
  std::fprintf(F, "\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Out.c_str());
  return 0;
}
