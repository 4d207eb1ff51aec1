//===- bench/micro_detect_throughput.cpp - detection throughput -------------===//
//
// Measures ULCP detection throughput (classified pairs per second) on a
// lock-heavy workload: one counts-only detectUlcps, every pair
// classified.  Emits BENCH_detect.json for CI tracking alongside a
// human-readable line.
//
// A second corpus — wide-set sections touching 10k..1M addresses,
// dense (interleaved, bitmap blocks) and sparse (strided, small
// blocks) — times Algorithm 1's two read/write-set intersection
// kernels directly, the sorted merge (sortedIntersects,
// support/SetOps.h) against the chunked bitmap (AddrSet::intersects,
// support/AddrSet.h), plus the density-routed classifyPairStatic, and
// records bitset_intersect_speedup.  Kernel and verdict parity are
// asserted per entry, and the run exits non-zero if the dense corpus
// falls below --min-speedup (default 4x), so CI smoke gates the
// word-parallel path.
//
// A third corpus — the synthetic rwmix application (shared rwlock
// sections, failed trylocks, condvar hand-offs) — times detection over
// the extended event vocabulary and records the per-kind verdict split
// in an "rwlock" block: reader-reader pairs must classify as ReadRead
// by the static shared-shared rule (never reaching replay), failed
// tries must surface as try_fail_edges, and condvar-ordered pairs as
// TrueContention.
//
// Usage:
//   bench_micro_detect_throughput [--app NAME] [--threads N] [--scale S]
//                                 [--repeat K] [--out FILE] [--no-wide]
//                                 [--no-rwlock] [--min-speedup X]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "detect/CriticalSection.h"
#include "detect/Detector.h"
#include "detect/SectionKey.h"
#include "sim/Replayer.h"
#include "support/SetOps.h"
#include "trace/TraceBuilder.h"
#include "workloads/WorkloadSpec.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

//===----------------------------------------------------------------------===//
// Wide-set corpus: sorted-merge vs chunked-bitmap intersection.
//===----------------------------------------------------------------------===//

/// Two threads, one lock, one section each, every section touching
/// \p Addrs addresses.  Dense entries interleave even/odd addresses
/// over one contiguous range, so every 1024-address chunk holds 512
/// members per section (bitmap blocks, word-parallel AND); sparse
/// entries stride by 128 with a half-stride offset, so chunks hold 8
/// members per section (small sorted-array blocks).  Both shapes make
/// the pair DisjointWrite: overlapping value ranges, no shared
/// address — the worst case for the sorted merge (no early exit, full
/// O(n) walk) and the case the chunked bitmap is built for.
Trace makeWideSetTrace(size_t Addrs, bool Dense) {
  const uint64_t Stride = Dense ? 2 : 128;
  TraceBuilder B;
  LockId Mu = B.addLock("wide_mu");
  CodeSiteId S0 = B.addSite("wide.cc", "writer_lo", 1, 9);
  CodeSiteId S1 = B.addSite("wide.cc", "writer_hi", 11, 19);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu, S0);
  for (size_t I = 0; I != Addrs; ++I)
    B.write(T0, static_cast<AddrId>(I * Stride), 1);
  B.endCs(T0);
  B.beginCs(T1, Mu, S1);
  for (size_t I = 0; I != Addrs; ++I)
    B.write(T1, static_cast<AddrId>(I * Stride + Stride / 2), 1);
  B.endCs(T1);
  return B.finish();
}

struct WideResult {
  const char *Name;
  size_t Addrs;
  bool Dense;
  double SortedSec = 0.0;
  double BitsetSec = 0.0;
  double AutoSec = 0.0;
  double Speedup = 0.0;
  const char *Verdict = "";
  bool Parity = true;
};

/// Times \p Iters runs of \p Fn, folding each result into
/// \p ResultOut (every run must give the same answer).
template <typename Fn>
double timeIters(unsigned Iters, Fn &&Run, unsigned &ResultOut) {
  auto Start = std::chrono::steady_clock::now();
  unsigned Acc = 0;
  for (unsigned I = 0; I != Iters; ++I)
    Acc += Run();
  auto End = std::chrono::steady_clock::now();
  ResultOut = Acc / Iters;
  return std::chrono::duration<double>(End - Start).count() / Iters;
}

/// Runs one corpus entry: builds the trace, times the writes-vs-writes
/// intersection (the one live intersection of these write-only
/// sections) under each kernel and the routed classifyPairStatic,
/// then checks parity: both kernels give the same answer, the routed
/// verdict follows it (TrueContention on a shared address,
/// DisjointWrite otherwise), and full detectUlcps counts that one
/// verdict.
WideResult runWideEntry(const char *Name, size_t Addrs, bool Dense) {
  WideResult R;
  R.Name = Name;
  R.Addrs = Addrs;
  R.Dense = Dense;

  Trace Tr = makeWideSetTrace(Addrs, Dense);
  CsIndex Index = CsIndex::build(Tr);
  const CriticalSection &C1 = Index.byGlobalId(0);
  const CriticalSection &C2 = Index.byGlobalId(1);

  // Per-entry iteration budget: ~30M touched addresses per timing leg
  // keeps every entry in the tens of milliseconds.
  unsigned Iters = static_cast<unsigned>(
      std::max<size_t>(3, 30 * 1000 * 1000 / std::max<size_t>(1, Addrs)));

  unsigned SortedHit, BitsetHit, AutoVerdict;
  R.SortedSec = timeIters(
      Iters,
      [&] {
        return static_cast<unsigned>(sortedIntersects(C1.Writes, C2.Writes));
      },
      SortedHit);
  R.BitsetSec = timeIters(
      Iters,
      [&] {
        return static_cast<unsigned>(C1.WriteSet.intersects(C2.WriteSet));
      },
      BitsetHit);
  R.AutoSec = timeIters(
      Iters,
      [&] { return static_cast<unsigned>(classifyPairStatic(C1, C2)); },
      AutoVerdict);
  R.Speedup = R.BitsetSec > 0.0 ? R.SortedSec / R.BitsetSec : 0.0;
  const UlcpKind Verdict = static_cast<UlcpKind>(AutoVerdict);
  R.Verdict = ulcpKindName(Verdict);

  // End-to-end parity: the whole detector, not just the static path.
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.CountsOnly = true;
  DetectResult Full = detectUlcps(Tr, Index, Opts);
  const UlcpKind Want =
      SortedHit ? UlcpKind::TrueContention : UlcpKind::DisjointWrite;
  UlcpCounts Expected;
  Expected.add(Want);
  R.Parity = SortedHit == BitsetHit && Verdict == Want &&
             Full.Counts.total() == 1 &&
             Full.Counts.TrueContention == Expected.TrueContention &&
             Full.Counts.DisjointWrite == Expected.DisjointWrite;
  return R;
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

bool flag(int Argc, char **Argv, const char *Name) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], Name) == 0)
      return true;
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string AppName = option(Argc, Argv, "--app", "lockheavy");
  unsigned Threads = static_cast<unsigned>(
      std::atoi(option(Argc, Argv, "--threads", "4").c_str()));
  double Scale = std::atof(option(Argc, Argv, "--scale", "1.0").c_str());
  unsigned Repeat = static_cast<unsigned>(
      std::atoi(option(Argc, Argv, "--repeat", "3").c_str()));
  std::string Out = option(Argc, Argv, "--out", "BENCH_detect.json");
  bool NoWide = flag(Argc, Argv, "--no-wide");
  bool NoRwlock = flag(Argc, Argv, "--no-rwlock");
  double MinSpeedup =
      std::atof(option(Argc, Argv, "--min-speedup", "4.0").c_str());
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

  // Wide-set intersection corpus (sorted-vector vs chunked-bitmap).
  std::vector<WideResult> Wide;
  bool WideParityOk = true;
  double DenseMinSpeedup = 0.0;
  if (!NoWide) {
    Wide.push_back(runWideEntry("dense_10k", 10 * 1000, true));
    Wide.push_back(runWideEntry("dense_100k", 100 * 1000, true));
    Wide.push_back(runWideEntry("dense_1m", 1000 * 1000, true));
    Wide.push_back(runWideEntry("sparse_10k", 10 * 1000, false));
    Wide.push_back(runWideEntry("sparse_100k", 100 * 1000, false));

    std::printf("wide-set intersection: sorted merge vs bitmap "
                "(DisjointWrite pairs)\n");
    for (const WideResult &W : Wide) {
      std::printf("  %-12s %7zu addrs  sorted %9.3f us  bitset %9.3f us"
                  "  auto %9.3f us  %7.1fx  %s%s\n",
                  W.Name, W.Addrs, W.SortedSec * 1e6, W.BitsetSec * 1e6,
                  W.AutoSec * 1e6, W.Speedup, W.Verdict,
                  W.Parity ? "" : "  PARITY FAIL");
      WideParityOk = WideParityOk && W.Parity;
      if (W.Dense)
        DenseMinSpeedup = DenseMinSpeedup == 0.0
                              ? W.Speedup
                              : std::min(DenseMinSpeedup, W.Speedup);
    }
  }

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
  if (!Wide.empty()) {
    std::fprintf(F, ",\n  \"wide_set\": [\n");
    for (size_t I = 0; I != Wide.size(); ++I) {
      const WideResult &W = Wide[I];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"addrs_per_section\": %zu, "
                   "\"density\": \"%s\", \"verdict\": \"%s\", "
                   "\"sorted_seconds\": %.9f, \"bitset_seconds\": %.9f, "
                   "\"auto_seconds\": %.9f, "
                   "\"bitset_intersect_speedup\": %.3f, "
                   "\"parity\": %s}%s\n",
                   W.Name, W.Addrs, W.Dense ? "dense" : "sparse",
                   W.Verdict, W.SortedSec, W.BitsetSec, W.AutoSec,
                   W.Speedup, W.Parity ? "true" : "false",
                   I + 1 != Wide.size() ? "," : "");
    }
    // The headline number: the worst dense-corpus speedup, i.e. the
    // conservative answer to "what does the word-parallel path buy on
    // wide dense sets".
    std::fprintf(F,
                 "  ],\n  \"bitset_intersect_speedup\": %.3f",
                 DenseMinSpeedup);
  }
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

  if (!Wide.empty()) {
    if (!WideParityOk) {
      std::fprintf(stderr, "FATAL: wide-set corpus answers diverged "
                           "between the sorted merge and the bitmap\n");
      return 1;
    }
    if (DenseMinSpeedup < MinSpeedup) {
      std::fprintf(stderr,
                   "FATAL: dense wide-set bitset speedup %.2fx below "
                   "the %.2fx floor\n",
                   DenseMinSpeedup, MinSpeedup);
      return 1;
    }
  }
  return 0;
}
