//===- tools/perfplay.cpp - PerfPlay command-line driver --------------------===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
// Subcommands:
//   perfplay list-apps
//   perfplay generate <app> [--threads N] [--scale S] [--seed N]
//                     [--out FILE] [--format text|v3]
//   perfplay analyze <trace> [<trace> ...] [--pairs adjacent|all]
//                    [--races] [--threads N] [--detect-threads N]
//                    [--no-dedup] [--set-repr auto|sorted|bitset]
//                    [--window-events N]
//   perfplay replay <trace> [--scheme orig|elsc|sync|mem|sle|htm]
//                   [--seed N] [--replays K] [--htm-capacity N]
//                   [--htm-retries N] [--abort-penalty NS]
//                   [--abort-rate R]
//   perfplay record [-o FILE] [--stats FILE] [--ring N]
//                   [--preload-lib PATH] [--fail-on-drops]
//                   [--require-sections] [--quiet] -- <program> [args...]
//   perfplay casestudy <bug1|bug2|mysql> [--threads N] [--scale S]
//   perfplay convert <trace> [--out FILE]
//   perfplay stats <trace> [--verbose]
//   perfplay serve --socket PATH [--workers N] [--cache-budget BYTES]
//                  [--max-queue N] [--idle-timeout MS]
//   perfplay client --socket PATH analyze <trace> [--pairs adjacent|all]
//                   [--no-cache]
//   perfplay client --socket PATH stats|shutdown
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/PerfPlay.h"
#include "serve/Server.h"
#include "detect/CriticalSection.h"
#include "sim/LockElision.h"
#include "sim/Timeline.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "debug/CsvExport.h"
#include "trace/Summary.h"
#include "trace/TraceIO.h"
#include "trace/TraceV3.h"
#include "workloads/Apps.h"
#include "workloads/CaseStudies.h"

#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstddef>
#include <cstring>
#include <map>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace perfplay;

namespace {

/// Minimal flag cursor over argv.  Commands consume their options
/// (option()/flag()) before positionals so option values — including
/// negative numbers like "--seed -1" — are never mistaken for
/// positional arguments.
class ArgList {
public:
  ArgList(int Argc, char **Argv) : Args(Argv + 1, Argv + Argc) {}

  /// True when \p Arg is a flag ("-x", "--name"), as opposed to a
  /// positional or a negative numeric value ("-1", "-0.5").
  static bool isFlag(const std::string &Arg) {
    if (Arg.size() < 2 || Arg[0] != '-')
      return false;
    return !(std::isdigit(static_cast<unsigned char>(Arg[1])) ||
             Arg[1] == '.');
  }

  /// Pops the next positional argument; empty when exhausted.
  std::string positional() {
    for (size_t I = 0; I != Args.size(); ++I)
      if (!isFlag(Args[I])) {
        std::string Out = Args[I];
        Args.erase(Args.begin() + static_cast<ptrdiff_t>(I));
        return Out;
      }
    return std::string();
  }

  /// Returns the value of --name VALUE or --name=VALUE, or Default.
  std::string option(const char *Name, std::string Default) {
    std::string Prefix = std::string(Name) + "=";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (Args[I] == Name && I + 1 < Args.size()) {
        std::string Out = Args[I + 1];
        Args.erase(Args.begin() + static_cast<ptrdiff_t>(I),
                   Args.begin() + static_cast<ptrdiff_t>(I) + 2);
        return Out;
      }
      if (Args[I].compare(0, Prefix.size(), Prefix) == 0) {
        std::string Out = Args[I].substr(Prefix.size());
        Args.erase(Args.begin() + static_cast<ptrdiff_t>(I));
        return Out;
      }
    }
    return Default;
  }

  /// Returns true if --name is present (and consumes it).
  bool flag(const char *Name) {
    for (size_t I = 0; I != Args.size(); ++I)
      if (Args[I] == Name) {
        Args.erase(Args.begin() + static_cast<ptrdiff_t>(I));
        return true;
      }
    return false;
  }

private:
  std::vector<std::string> Args;
};

/// Parses a non-negative thread-count option value; rejects negatives
/// and garbage instead of letting them wrap to huge unsigned values.
bool parseThreadCount(const std::string &S, const char *Name,
                      unsigned &Out) {
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (End == S.c_str() || *End != '\0' || errno == ERANGE || V < 0 ||
      V > 1 << 16) {
    std::fprintf(stderr, "error: %s expects a non-negative thread count, "
                         "got '%s'\n",
                 Name, S.c_str());
    return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  perfplay list-apps\n"
      "  perfplay generate <app> [--threads N] [--scale S] [--seed N]"
      " [--out FILE]\n"
      "                   [--format text|v3]\n"
      "  perfplay analyze <trace> [<trace> ...] [--pairs adjacent|all]"
      " [--races]\n"
      "                  [--timeline] [--csv] [--progress] [--threads N]\n"
      "                  [--detect-threads N] [--no-dedup]\n"
      "                  [--set-repr auto|sorted|bitset]"
      " [--window-events N]\n"
      "  perfplay replay <trace> [--scheme orig|elsc|sync|mem|sle|htm]"
      " [--seed N]\n"
      "                 [--replays K]\n"
      "                 [--htm-capacity N] [--htm-retries N]"
      " [--abort-penalty NS]\n"
      "                 [--abort-rate R]\n"
      "  perfplay record [-o FILE] [--stats FILE] [--ring N]"
      " [--preload-lib PATH]\n"
      "                 [--fail-on-drops] [--require-sections] [--quiet]"
      " --\n"
      "                 <program> [args...]\n"
      "  perfplay casestudy <bug1|bug2|mysql> [--threads N] [--scale S]\n"
      "  perfplay convert <trace> [--out FILE]\n"
      "  perfplay stats <trace> [--verbose]\n"
      "  perfplay serve --socket PATH [--workers N]"
      " [--cache-budget BYTES]\n"
      "                [--max-queue N] [--idle-timeout MS]\n"
      "  perfplay client --socket PATH analyze <trace>"
      " [--pairs adjacent|all]\n"
      "                 [--no-cache]\n"
      "  perfplay client --socket PATH stats|shutdown\n"
      "options accept both '--name value' and '--name=value';\n"
      "trace files are memory-mapped when they are regular files"
      " (zero-copy for v3),\n"
      "and streamed through stdio otherwise;\n"
      "analyze --window-events streams a chunked v3 trace through"
      " bounded-memory\n"
      "windowed detection (detection only; 0 = one chunk per window);\n"
      "convert rewrites any trace as chunked v3, in place unless --out"
      " is given;\n"
      "replay --scheme sle/htm run the speculation baselines instead of"
      " a lock\n"
      "replay (sle: flat --abort-rate false aborts; htm: deterministic\n"
      "capacity aborts above --htm-capacity addresses, straight to lock"
      " fallback)\n");
  return 2;
}

/// Parses the --set-repr value: which read/write-set representation
/// detection intersects (detect/Classify.h).  All three produce
/// identical verdicts; sorted/bitset pin one path for parity or
/// benchmarking runs.
bool parseSetRepr(const std::string &S, SetRepr &Out) {
  if (S == "auto")
    Out = SetRepr::Auto;
  else if (S == "sorted")
    Out = SetRepr::Sorted;
  else if (S == "bitset")
    Out = SetRepr::Bitset;
  else {
    std::fprintf(stderr, "error: --set-repr expects auto|sorted|bitset, "
                         "got '%s'\n",
                 S.c_str());
    return false;
  }
  return true;
}

const char *formatName(TraceFormat F) {
  switch (F) {
  case TraceFormat::Text:
    return "text";
  case TraceFormat::V3:
    return "v3";
  }
  return "unknown";
}

/// Parses the --format value of `generate`.
bool parseTraceFormat(const std::string &S, TraceFormat &Out) {
  if (S == "text")
    Out = TraceFormat::Text;
  else if (S == "v3")
    Out = TraceFormat::V3;
  else {
    std::fprintf(stderr, "error: --format expects text|v3, "
                         "got '%s'\n",
                 S.c_str());
    return false;
  }
  return true;
}

int cmdListApps() {
  Table T;
  T.addRow({"application", "kind"});
  for (const AppModel &App : realWorldApps())
    T.addRow({App.Name, "real-world"});
  for (const AppModel &App : parsecApps())
    T.addRow({App.Name, "PARSEC"});
  for (const AppModel &App : syntheticApps())
    T.addRow({App.Name, "synthetic"});
  std::printf("%s", T.render().c_str());
  return 0;
}

int cmdGenerate(ArgList &Args) {
  unsigned Threads =
      static_cast<unsigned>(std::atoi(Args.option("--threads", "2").c_str()));
  double Scale = std::atof(Args.option("--scale", "1.0").c_str());
  uint64_t Seed = std::strtoull(Args.option("--seed", "42").c_str(),
                                nullptr, 10);
  std::string Out = Args.option("--out", "");
  TraceFormat Format = TraceFormat::Text;
  std::string FormatStr = Args.option("--format", "");
  if (!FormatStr.empty() && !parseTraceFormat(FormatStr, Format))
    return 2;
  std::string Name = Args.positional();
  if (Name.empty())
    return usage();
  const AppModel *App = nullptr;
  for (const AppModel &A : allApps())
    if (A.Name == Name)
      App = &A;
  for (const AppModel &A : syntheticApps())
    if (A.Name == Name)
      App = &A;
  if (!App) {
    std::fprintf(stderr, "error: unknown application '%s' "
                         "(see 'perfplay list-apps')\n",
                 Name.c_str());
    return 1;
  }
  if (Out.empty())
    Out = Name + ".trace";

  Trace Tr = generateWorkload(App->Factory(Threads, Scale));
  ReplayResult Rec = recordGrantSchedule(Tr, Seed);
  if (!Rec.ok()) {
    std::fprintf(stderr, "error: recording replay failed: %s\n",
                 Rec.Error.c_str());
    return 1;
  }
  std::string Err;
  if (!saveTrace(Tr, Out, Err, Format)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s (%s): %u threads, %zu events, "
              "%zu critical sections\n",
              Out.c_str(), formatName(Format), Tr.numThreads(),
              Tr.numEvents(), Tr.numCriticalSections());
  return 0;
}

/// Batch mode of `perfplay analyze`: several traces analyzed
/// concurrently via Engine::analyzeBatchFilesStreaming — each worker
/// loads its own file on demand (zero-copy mmap by default) and each
/// result is formatted and discarded as it completes, so the batch
/// never holds every trace or every PipelineResult at once.  A small
/// reorder buffer of formatted lines flushes them in trace order,
/// keeping the output deterministic across runs and thread counts.
/// An unreadable or corrupt file fails only its own line.
int analyzeBatchMode(Engine &Eng, const std::vector<std::string> &Paths,
                     unsigned Threads, bool Races) {
  struct PendingLine {
    bool Ready = false;
    bool IsError = false;
    std::string Text;
  };
  std::vector<PendingLine> Pending(Paths.size());
  size_t NextToFlush = 0;
  int Status = 0;

  // Serialized by the batch: format, then flush every line whose
  // predecessors have all arrived.  Paths and diagnostics are appended
  // as strings (arbitrary length); only the numeric tails go through
  // the fixed snprintf buffer.
  auto Consumer = [&](size_t I, Expected<PipelineResult> Item) {
    char Buf[192];
    PendingLine &P = Pending[I];
    if (!Item.ok()) {
      P.Text = Paths[I] + ": error: " + Item.message() + " [" +
               errorCodeName(Item.code()) + "]\n";
      P.IsError = true;
      Status = 1;
    } else {
      const UlcpCounts &C = Item->Detection.Counts;
      std::snprintf(Buf, sizeof(Buf),
                    ": %llu ULCPs (NL=%llu RR=%llu DW=%llu "
                    "benign=%llu), true contention %llu\n",
                    static_cast<unsigned long long>(C.totalUnnecessary()),
                    static_cast<unsigned long long>(C.NullLock),
                    static_cast<unsigned long long>(C.ReadRead),
                    static_cast<unsigned long long>(C.DisjointWrite),
                    static_cast<unsigned long long>(C.Benign),
                    static_cast<unsigned long long>(C.TrueContention));
      P.Text = Paths[I] + Buf;
      if (Races)
        for (const RaceReport &Race : Item->Races) {
          std::snprintf(Buf, sizeof(Buf),
                        "  race: addr %llu threads %u vs %u\n",
                        static_cast<unsigned long long>(Race.Addr),
                        Race.ThreadA, Race.ThreadB);
          P.Text += Buf;
        }
    }
    P.Ready = true;
    while (NextToFlush != Pending.size() && Pending[NextToFlush].Ready) {
      PendingLine &Out = Pending[NextToFlush];
      std::fputs(Out.Text.c_str(), Out.IsError ? stderr : stdout);
      Out.Text.clear();
      Out.Text.shrink_to_fit();
      ++NextToFlush;
    }
  };

  AggregatedReport Agg =
      Eng.analyzeBatchFilesStreaming(Paths, Consumer, Threads);
  std::printf("\n%s", renderAggregatedReport(Agg).c_str());
  return Status;
}

int cmdAnalyze(ArgList &Args) {
  std::string PairMode = Args.option("--pairs", "adjacent");
  bool Races = Args.flag("--races");
  bool Timeline = Args.flag("--timeline");
  bool Csv = Args.flag("--csv");
  bool Progress = Args.flag("--progress");
  unsigned Threads, DetectThreads;
  if (!parseThreadCount(Args.option("--threads", "0"), "--threads",
                        Threads) ||
      !parseThreadCount(Args.option("--detect-threads", "1"),
                        "--detect-threads", DetectThreads))
    return 2;
  bool NoDedup = Args.flag("--no-dedup");
  SetRepr Repr;
  if (!parseSetRepr(Args.option("--set-repr", "auto"), Repr))
    return 2;
  std::string WindowStr = Args.option("--window-events", "");
  bool Windowed = !WindowStr.empty();
  uint64_t WindowEvents = 0;
  if (Windowed) {
    errno = 0;
    char *End = nullptr;
    unsigned long long V = std::strtoull(WindowStr.c_str(), &End, 10);
    if (End == WindowStr.c_str() || *End != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "error: --window-events expects a non-negative "
                           "event count, got '%s'\n",
                   WindowStr.c_str());
      return 2;
    }
    WindowEvents = V;
  }
  std::vector<std::string> Paths;
  for (std::string P = Args.positional(); !P.empty();
       P = Args.positional())
    Paths.push_back(P);
  if (Paths.empty())
    return usage();

  Engine Eng;
  Eng.options().Detect.PairMode = PairMode == "all"
                                      ? PairModeKind::AllCrossThread
                                      : PairModeKind::AdjacentCrossThread;
  Eng.options().Detect.NumThreads = DetectThreads;
  Eng.options().Detect.DedupPairs = !NoDedup;
  Eng.options().Detect.Repr = Repr;
  Eng.options().CheckRaces = Races;
  if (Progress)
    Eng.setProgressCallback([](const StageEvent &Event) {
      if (!Event.FromCache)
        std::fprintf(stderr, "[stage] #%zu %s\n", Event.TraceIndex,
                     stageKindName(Event.Stage));
    });

  // Out-of-core mode: stream the v3 trace through bounded-memory
  // windowed detection (Engine::detectWindowed).  Detection only — the
  // transform/replay stages need the materialized trace, which is the
  // point of not having one.
  if (Windowed) {
    if (Paths.size() > 1) {
      std::fprintf(stderr, "error: --window-events analyzes a single "
                           "trace\n");
      return 2;
    }
    if (Timeline || Csv || Races)
      std::fprintf(stderr, "warning: --window-events runs detection "
                           "only; --timeline/--csv/--races ignored\n");
    Eng.options().WindowEvents = WindowEvents;
    Expected<DetectResult> ROr = Eng.detectWindowed(Paths[0]);
    if (!ROr) {
      std::fprintf(stderr, "error: %s [%s]\n", ROr.message().c_str(),
                   errorCodeName(ROr.code()));
      return 1;
    }
    const UlcpCounts &C = ROr->Counts;
    std::printf("ULCPs: %llu (NL=%llu RR=%llu DW=%llu benign=%llu), "
                "true contention: %llu\n",
                static_cast<unsigned long long>(C.totalUnnecessary()),
                static_cast<unsigned long long>(C.NullLock),
                static_cast<unsigned long long>(C.ReadRead),
                static_cast<unsigned long long>(C.DisjointWrite),
                static_cast<unsigned long long>(C.Benign),
                static_cast<unsigned long long>(C.TrueContention));
    return 0;
  }

  if (Paths.size() > 1) {
    if (Timeline || Csv)
      std::fprintf(stderr, "warning: --timeline/--csv apply only to "
                           "single-trace analyze; ignored\n");
    return analyzeBatchMode(Eng, Paths, Threads, Races);
  }
  if (Threads != 0)
    std::fprintf(stderr, "warning: --threads parallelizes across traces "
                         "and is ignored for a single trace; use "
                         "--detect-threads to parallelize detection\n");

  // The session pins the file mapping (zero-copy v3 loads) for as long
  // as it analyzes the trace.
  Expected<AnalysisSession> SessionOr = Eng.openSessionFromFile(Paths[0]);
  if (!SessionOr) {
    std::fprintf(stderr, "error: %s\n", SessionOr.message().c_str());
    return 1;
  }
  AnalysisSession Session = std::move(*SessionOr);
  PipelineError TypedErr;
  PipelineResult R = Session.run(&TypedErr);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s [%s]\n", R.Error.c_str(),
                 errorCodeName(TypedErr.Code));
    return 1;
  }

  const UlcpCounts &C = R.Detection.Counts;
  std::printf("ULCPs: %llu (NL=%llu RR=%llu DW=%llu benign=%llu), "
              "true contention: %llu\n",
              static_cast<unsigned long long>(C.totalUnnecessary()),
              static_cast<unsigned long long>(C.NullLock),
              static_cast<unsigned long long>(C.ReadRead),
              static_cast<unsigned long long>(C.DisjointWrite),
              static_cast<unsigned long long>(C.Benign),
              static_cast<unsigned long long>(C.TrueContention));
  std::printf("transform: %llu causal edges, %llu auxiliary locks, "
              "%llu standalone sections removed\n",
              static_cast<unsigned long long>(
                  R.Transformation.Topology.numEdges()),
              static_cast<unsigned long long>(
                  R.Transformation.NumAuxLocks),
              static_cast<unsigned long long>(
                  R.Transformation.NumStandalone));
  if (Csv) {
    std::printf("\n-- detection.csv --\n%s",
                detectionToCsv(R.Detection).c_str());
    std::printf("\n-- report.csv --\n%s", reportToCsv(R.Report).c_str());
  }
  std::printf("\n%s", renderReport(R.Report).c_str());
  if (Timeline) {
    std::printf("\noriginal replay:\n%s",
                renderTimeline(R.Transformation.Transformed, R.Original)
                    .c_str());
    std::printf("\nULCP-free replay:\n%s",
                renderTimeline(R.Transformation.Transformed, R.UlcpFree)
                    .c_str());
  }
  if (Races) {
    std::printf("\nTheorem-1 race check: %zu potential race(s)\n",
                R.Races.size());
    for (const RaceReport &Race : R.Races)
      std::printf("  addr %llu: threads %u vs %u\n",
                  static_cast<unsigned long long>(Race.Addr),
                  Race.ThreadA, Race.ThreadB);
  }
  return 0;
}

/// The sle/htm arms of `perfplay replay`: speculation baselines that
/// run over the loaded trace's critical-section index rather than
/// through the schedule-kind replayer.  Empty knob strings keep each
/// model's own default (sle and htm differ on every one).
int replaySpeculation(const std::string &SchemeName, const std::string &Path,
                      uint64_t Seed, unsigned Replays,
                      const std::string &Capacity, const std::string &Retries,
                      const std::string &Penalty, const std::string &Rate) {
  Expected<Trace> TrOr = readTraceFile(Path);
  if (!TrOr) {
    std::fprintf(stderr, "error: %s\n", TrOr.message().c_str());
    return 1;
  }
  const Trace &Tr = *TrOr;
  CsIndex Index = CsIndex::build(Tr);

  RunningStats Stats;
  if (SchemeName == "htm") {
    HtmOptions Opts;
    if (!Capacity.empty())
      Opts.Capacity =
          static_cast<unsigned>(std::strtoul(Capacity.c_str(), nullptr, 10));
    if (!Retries.empty())
      Opts.MaxRetries =
          static_cast<unsigned>(std::strtoul(Retries.c_str(), nullptr, 10));
    if (!Penalty.empty())
      Opts.AbortPenalty = std::strtoull(Penalty.c_str(), nullptr, 10);
    if (!Rate.empty())
      Opts.InterruptAbortRate = std::atof(Rate.c_str());
    HtmResult Last;
    for (unsigned I = 0; I != std::max(Replays, 1u); ++I) {
      Opts.Seed = Seed + I;
      Last = simulateHtm(Tr, Index, Opts);
      Stats.add(static_cast<double>(Last.TotalTime));
    }
    std::printf("htm: %s mean over %llu replay(s), spread %s\n",
                formatNs(static_cast<TimeNs>(Stats.mean())).c_str(),
                static_cast<unsigned long long>(Stats.count()),
                formatNs(static_cast<TimeNs>(Stats.range())).c_str());
    std::printf("aborts: %llu conflict, %llu capacity, %llu interrupt; "
                "%llu lock fallbacks, wasted %s\n",
                static_cast<unsigned long long>(Last.ConflictAborts),
                static_cast<unsigned long long>(Last.CapacityAborts),
                static_cast<unsigned long long>(Last.InterruptAborts),
                static_cast<unsigned long long>(Last.Fallbacks),
                formatNs(Last.WastedNs).c_str());
    return 0;
  }

  LockElisionOptions Opts;
  if (!Retries.empty())
    Opts.MaxRetries =
        static_cast<unsigned>(std::strtoul(Retries.c_str(), nullptr, 10));
  if (!Penalty.empty())
    Opts.AbortPenalty = std::strtoull(Penalty.c_str(), nullptr, 10);
  if (!Rate.empty())
    Opts.FalseAbortRate = std::atof(Rate.c_str());
  LockElisionResult Last;
  for (unsigned I = 0; I != std::max(Replays, 1u); ++I) {
    Opts.Seed = Seed + I;
    Last = simulateLockElision(Tr, Index, Opts);
    Stats.add(static_cast<double>(Last.TotalTime));
  }
  std::printf("sle: %s mean over %llu replay(s), spread %s\n",
              formatNs(static_cast<TimeNs>(Stats.mean())).c_str(),
              static_cast<unsigned long long>(Stats.count()),
              formatNs(static_cast<TimeNs>(Stats.range())).c_str());
  std::printf("aborts: %llu conflict, %llu false; %llu lock fallbacks, "
              "wasted %s\n",
              static_cast<unsigned long long>(Last.ConflictAborts),
              static_cast<unsigned long long>(Last.FalseAborts),
              static_cast<unsigned long long>(Last.Fallbacks),
              formatNs(Last.WastedNs).c_str());
  return 0;
}

int cmdReplay(ArgList &Args) {
  std::string SchemeName = Args.option("--scheme", "elsc");
  uint64_t Seed =
      std::strtoull(Args.option("--seed", "1").c_str(), nullptr, 10);
  unsigned Replays =
      static_cast<unsigned>(std::atoi(Args.option("--replays", "1").c_str()));
  std::string Capacity = Args.option("--htm-capacity", "");
  std::string Retries = Args.option("--htm-retries", "");
  std::string Penalty = Args.option("--abort-penalty", "");
  std::string Rate = Args.option("--abort-rate", "");
  std::string Path = Args.positional();
  if (Path.empty())
    return usage();

  if (SchemeName == "sle" || SchemeName == "htm")
    return replaySpeculation(SchemeName, Path, Seed, Replays, Capacity,
                             Retries, Penalty, Rate);

  ScheduleKind Scheme;
  if (!parseScheduleKind(SchemeName, Scheme)) {
    std::fprintf(stderr, "error: unknown scheme '%s'\n",
                 SchemeName.c_str());
    return 1;
  }

  Expected<Trace> TrOr = readTraceFile(Path);
  if (!TrOr) {
    std::fprintf(stderr, "error: %s\n", TrOr.message().c_str());
    return 1;
  }

  PipelineOptions Opts;
  Opts.RecordSeed = Seed;
  AnalysisSession Session(std::move(*TrOr), Opts);

  RunningStats Stats;
  const ReplayResult *Last = nullptr;
  for (unsigned I = 0; I != std::max(Replays, 1u); ++I) {
    Expected<const ReplayResult &> R = Session.replay(Scheme, Seed + I);
    if (!R) {
      std::fprintf(stderr, "error: %s [%s]\n", R.message().c_str(),
                   errorCodeName(R.code()));
      return 1;
    }
    Last = &*R;
    Stats.add(static_cast<double>(R->TotalTime));
  }
  std::printf("%s: %s mean over %llu replay(s), spread %s\n",
              scheduleKindName(Scheme),
              formatNs(static_cast<TimeNs>(Stats.mean())).c_str(),
              static_cast<unsigned long long>(Stats.count()),
              formatNs(static_cast<TimeNs>(Stats.range())).c_str());
  std::printf("spin-wait %s, idle-wait %s, lockset overhead %s\n",
              formatNs(Last->SpinWaitNs).c_str(),
              formatNs(Last->IdleWaitNs).c_str(),
              formatNs(Last->LocksetOverheadNs).c_str());
  return 0;
}

int cmdStats(ArgList &Args) {
  bool Verbose = Args.flag("--verbose");
  std::string Path = Args.positional();
  if (Path.empty())
    return usage();
  Expected<LoadedTrace> Loaded = openTraceFile(Path);
  if (!Loaded) {
    std::fprintf(stderr, "error: %s\n", Loaded.message().c_str());
    return 1;
  }
  const Trace &Tr = Loaded->Tr;
  const TraceLoadInfo &Info = Loaded->Info;
  if (Verbose) {
    std::printf("load: format %s, served by %s\n", formatName(Info.Format),
                Info.UsedMmap ? "mmap (zero-copy)" : "stream loader");
    if (!Info.MmapDowngradeReason.empty())
      std::printf("load: mmap downgraded: %s\n",
                  Info.MmapDowngradeReason.c_str());
  }
  TraceSummary S = summarizeTrace(Tr);
  std::printf("%s", renderSummary(Tr, S).c_str());
  return 0;
}

/// `perfplay convert`: rewrites any readable trace (text or v3) as
/// chunked v3, in place unless --out is given.  saveTrace replaces the
/// file atomically, so a crash mid-write never clobbers the original
/// and the mapping the loaded trace borrows from stays valid.
int cmdConvert(ArgList &Args) {
  std::string Out = Args.option("--out", "");
  std::string Path = Args.positional();
  if (Path.empty())
    return usage();
  const std::string &Dest = Out.empty() ? Path : Out;

  Expected<LoadedTrace> Loaded = openTraceFile(Path);
  if (!Loaded) {
    std::fprintf(stderr, "error: %s\n", Loaded.message().c_str());
    return 1;
  }
  const Trace &Tr = Loaded->Tr;
  const TraceFormat Format = Loaded->Info.Format;
  if (Out.empty() && Format == TraceFormat::V3) {
    std::printf("%s is already chunked v3; nothing to do\n", Path.c_str());
    return 0;
  }

  std::string Err;
  if (!saveTrace(Tr, Dest, Err, TraceFormat::V3)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::printf("converted %s (%s) -> %s (v3): %u threads, %zu events, "
              "%zu critical sections\n",
              Path.c_str(), formatName(Format), Dest.c_str(),
              Tr.numThreads(), Tr.numEvents(), Tr.numCriticalSections());
  return 0;
}

/// Absolute form of \p Path (the recorded child may chdir, and the
/// shim resolves its output relative to its own cwd).
std::string absolutePath(const std::string &Path) {
  if (!Path.empty() && Path[0] == '/')
    return Path;
  char Cwd[PATH_MAX];
  if (!getcwd(Cwd, sizeof(Cwd)))
    return Path;
  return std::string(Cwd) + "/" + Path;
}

/// Locates libperfplay_preload.so: --preload-lib flag, then the
/// PERFPLAY_PRELOAD_LIB env var, then next to this executable (the
/// build tree layout).
std::string findPreloadLib(const std::string &FlagValue) {
  if (!FlagValue.empty())
    return FlagValue;
  if (const char *Env = getenv("PERFPLAY_PRELOAD_LIB"))
    if (*Env)
      return Env;
  char Exe[PATH_MAX];
  ssize_t N = readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  if (N > 0) {
    Exe[N] = '\0';
    std::string Dir(Exe);
    size_t Slash = Dir.rfind('/');
    if (Slash != std::string::npos)
      return Dir.substr(0, Slash + 1) + "libperfplay_preload.so";
  }
  return "libperfplay_preload.so";
}

/// Reads the recorder's key/value stats sidecar back.
bool readStatsFile(const std::string &Path,
                   std::map<std::string, std::string> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return false;
  char Line[4096];
  while (std::fgets(Line, sizeof(Line), F)) {
    std::string S(Line);
    while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
      S.pop_back();
    size_t Space = S.find(' ');
    if (Space == std::string::npos || Space == 0)
      continue;
    Out[S.substr(0, Space)] = S.substr(Space + 1);
  }
  std::fclose(F);
  return true;
}

uint64_t statValue(const std::map<std::string, std::string> &Stats,
                   const char *Key) {
  auto It = Stats.find(Key);
  return It == Stats.end() ? 0 : std::strtoull(It->second.c_str(), nullptr, 10);
}

/// `perfplay record`: runs a program under the LD_PRELOAD pthread
/// recorder and reports what the shim captured.  Parses raw argv
/// because everything after `--` belongs to the recorded program
/// (ArgList would treat it as a flag).
int cmdRecord(int Argc, char **Argv) {
  std::string Out = "trace.v3";
  std::string StatsPath;
  std::string Lib;
  std::string Ring;
  bool FailOnDrops = false, RequireSections = false, Quiet = false;
  int I = 2; // Argv[1] == "record".
  for (; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Name) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s expects a value\n", Name);
        return nullptr;
      }
      return Argv[++I];
    };
    if (A == "--")
      break;
    if (A == "-o" || A == "--out") {
      const char *V = Value(A.c_str());
      if (!V)
        return 2;
      Out = V;
    } else if (A.rfind("--out=", 0) == 0) {
      Out = A.substr(6);
    } else if (A == "--stats") {
      const char *V = Value("--stats");
      if (!V)
        return 2;
      StatsPath = V;
    } else if (A.rfind("--stats=", 0) == 0) {
      StatsPath = A.substr(8);
    } else if (A == "--ring") {
      const char *V = Value("--ring");
      if (!V)
        return 2;
      Ring = V;
    } else if (A.rfind("--ring=", 0) == 0) {
      Ring = A.substr(7);
    } else if (A == "--preload-lib") {
      const char *V = Value("--preload-lib");
      if (!V)
        return 2;
      Lib = V;
    } else if (A.rfind("--preload-lib=", 0) == 0) {
      Lib = A.substr(14);
    } else if (A == "--fail-on-drops") {
      FailOnDrops = true;
    } else if (A == "--require-sections") {
      RequireSections = true;
    } else if (A == "--quiet") {
      Quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown record option '%s'\n", A.c_str());
      return usage();
    }
  }
  if (I >= Argc || ++I >= Argc) {
    std::fprintf(stderr, "error: record needs '-- <program> [args...]'\n");
    return usage();
  }

  Out = absolutePath(Out);
  if (StatsPath.empty())
    StatsPath = Out + ".stats";
  StatsPath = absolutePath(StatsPath);
  Lib = absolutePath(findPreloadLib(Lib));
  if (access(Lib.c_str(), R_OK) != 0) {
    std::fprintf(stderr,
                 "error: preload library not found at %s "
                 "(use --preload-lib or PERFPLAY_PRELOAD_LIB)\n",
                 Lib.c_str());
    return 1;
  }
  // A stale sidecar would masquerade as this run's result if the child
  // dies before the shim finalizes.
  std::remove(StatsPath.c_str());

  pid_t Pid = fork();
  if (Pid < 0) {
    std::fprintf(stderr, "error: fork: %s\n", std::strerror(errno));
    return 1;
  }
  if (Pid == 0) {
    setenv("PERFPLAY_TRACE_OUT", Out.c_str(), 1);
    setenv("PERFPLAY_RECORD_STATS", StatsPath.c_str(), 1);
    if (!Ring.empty())
      setenv("PERFPLAY_RING_CAPACITY", Ring.c_str(), 1);
    unsetenv("PERFPLAY_RECORD_PID"); // The child is the root recorder.
    std::string Preload = Lib;
    if (const char *Existing = getenv("LD_PRELOAD"))
      if (*Existing)
        Preload += std::string(":") + Existing;
    setenv("LD_PRELOAD", Preload.c_str(), 1);
    execvp(Argv[I], &Argv[I]);
    std::fprintf(stderr, "error: exec %s: %s\n", Argv[I],
                 std::strerror(errno));
    _exit(127);
  }

  int Status = 0;
  if (waitpid(Pid, &Status, 0) < 0) {
    std::fprintf(stderr, "error: waitpid: %s\n", std::strerror(errno));
    return 1;
  }
  int ChildRc = 0;
  if (WIFSIGNALED(Status)) {
    ChildRc = 128 + WTERMSIG(Status);
    std::fprintf(stderr, "record: %s killed by signal %d\n", Argv[I],
                 WTERMSIG(Status));
  } else if (WIFEXITED(Status)) {
    ChildRc = WEXITSTATUS(Status);
  }

  std::map<std::string, std::string> Stats;
  if (!readStatsFile(StatsPath, Stats)) {
    std::fprintf(stderr,
                 "error: recorder wrote no stats (%s); did the shim "
                 "initialize?\n",
                 StatsPath.c_str());
    return ChildRc != 0 ? ChildRc : 1;
  }
  if (statValue(Stats, "ok") != 1) {
    auto It = Stats.find("error");
    std::fprintf(stderr, "error: recording failed: %s\n",
                 It == Stats.end() ? "unknown" : It->second.c_str());
    return ChildRc != 0 ? ChildRc : 1;
  }

  // The shim renamed the trace into place; prove it loads before
  // advertising it.
  {
    WindowedReader Reader;
    std::string Err;
    if (!Reader.open(Out, Err)) {
      std::fprintf(stderr, "error: recorded trace is unreadable: %s\n",
                   Err.c_str());
      return 1;
    }
  }

  const uint64_t Drops = statValue(Stats, "drops");
  const uint64_t Sections = statValue(Stats, "sections");
  if (!Quiet) {
    std::printf("recorded %s: %llu threads, %llu events, %llu critical "
                "sections\n",
                Out.c_str(),
                static_cast<unsigned long long>(statValue(Stats, "threads")),
                static_cast<unsigned long long>(
                    statValue(Stats, "trace_events")),
                static_cast<unsigned long long>(Sections));
    std::printf("recorder: %llu attempts, %llu records, %llu drops, "
                "%llu synthesized releases, %llu unmatched releases\n",
                static_cast<unsigned long long>(statValue(Stats, "attempts")),
                static_cast<unsigned long long>(statValue(Stats, "records")),
                static_cast<unsigned long long>(Drops),
                static_cast<unsigned long long>(
                    statValue(Stats, "synth_releases")),
                static_cast<unsigned long long>(
                    statValue(Stats, "unmatched_releases")));
  }
  if (FailOnDrops && Drops > 0) {
    std::fprintf(stderr, "error: recorder dropped %llu records "
                         "(--fail-on-drops); raise --ring\n",
                 static_cast<unsigned long long>(Drops));
    return 1;
  }
  if (RequireSections && Sections == 0) {
    std::fprintf(stderr,
                 "error: recording contains no critical sections "
                 "(--require-sections)\n");
    return 1;
  }
  return ChildRc;
}

int cmdCaseStudy(ArgList &Args) {
  CaseStudyParams P;
  P.NumThreads =
      static_cast<unsigned>(std::atoi(Args.option("--threads", "4").c_str()));
  P.InputScale = std::atof(Args.option("--scale", "1.0").c_str());
  std::string Which = Args.positional();
  if (Which.empty())
    return usage();

  Trace Buggy, Fixed;
  if (Which == "bug1") {
    Buggy = makeOpenldapSpinWait(P);
    Fixed = makeOpenldapSpinWaitFixed(P);
  } else if (Which == "bug2") {
    Buggy = makePbzip2Consumer(P);
    Fixed = makePbzip2ConsumerFixed(P);
  } else if (Which == "mysql") {
    Buggy = makeMysqlQueryCache(P);
    Fixed = makeMysqlQueryCacheFixed(P);
  } else {
    std::fprintf(stderr, "error: unknown case study '%s'\n",
                 Which.c_str());
    return 1;
  }

  // Buggy and fixed variants are independent: analyze them in parallel.
  Engine Eng;
  std::vector<Trace> Pair;
  Pair.push_back(std::move(Buggy));
  Pair.push_back(std::move(Fixed));
  std::vector<Expected<PipelineResult>> Batch =
      Eng.analyzeBatch(std::move(Pair), 2);
  if (!Batch[0].ok() || !Batch[1].ok()) {
    const PipelineError &E =
        Batch[0].ok() ? Batch[1].error() : Batch[0].error();
    std::fprintf(stderr, "error: %s [%s]\n", E.Message.c_str(),
                 errorCodeName(E.Code));
    return 1;
  }
  const PipelineResult &RBuggy = *Batch[0];
  const PipelineResult &RFixed = *Batch[1];
  std::printf("%s @%u threads, scale %.2f\n", Which.c_str(), P.NumThreads,
              P.InputScale);
  std::printf("  buggy : %s (%llu ULCPs, spin waste %s)\n",
              formatNs(RBuggy.Original.TotalTime).c_str(),
              static_cast<unsigned long long>(
                  RBuggy.Detection.Counts.totalUnnecessary()),
              formatNs(RBuggy.Original.SpinWaitNs).c_str());
  std::printf("  fixed : %s (%llu ULCPs, spin waste %s)\n",
              formatNs(RFixed.Original.TotalTime).c_str(),
              static_cast<unsigned long long>(
                  RFixed.Detection.Counts.totalUnnecessary()),
              formatNs(RFixed.Original.SpinWaitNs).c_str());
  std::printf("\n%s", renderReport(RBuggy.Report).c_str());
  return 0;
}

/// `perfplay serve`: run the resident analysis daemon until a client
/// sends shutdown (perfplay client --socket PATH shutdown).
int cmdServe(ArgList &Args) {
  serve::ServerOptions Opts;
  Opts.SocketPath = Args.option("--socket", "");
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "error: serve requires --socket PATH\n");
    return 2;
  }
  if (!parseThreadCount(Args.option("--workers", "0"), "--workers",
                        Opts.NumWorkers))
    return 2;
  Opts.CacheBudgetBytes = static_cast<size_t>(std::strtoull(
      Args.option("--cache-budget", "67108864").c_str(), nullptr, 10));
  unsigned MaxQueue;
  if (!parseThreadCount(Args.option("--max-queue", "64"), "--max-queue",
                        MaxQueue))
    return 2;
  Opts.MaxQueueDepth = MaxQueue;
  Opts.IdleTimeoutMs =
      std::atoi(Args.option("--idle-timeout", "0").c_str());

  serve::Server Daemon(Opts);
  Expected<void> StartOr = Daemon.start();
  if (!StartOr) {
    std::fprintf(stderr, "error: %s [%s]\n", StartOr.message().c_str(),
                 errorCodeName(StartOr.code()));
    return 1;
  }
  std::printf("serving on %s: %u worker(s), %u detect thread(s)/request, "
              "cache budget %zu bytes\n",
              Opts.SocketPath.c_str(), Daemon.workers(),
              Daemon.detectThreadsPerRequest(), Opts.CacheBudgetBytes);
  std::fflush(stdout);
  Daemon.wait();
  Daemon.stop();
  std::printf("daemon stopped\n");
  return 0;
}

void printServeStats(const serve::ServeStats &S) {
  std::printf("requests: %llu served, %llu failed, %llu protocol errors, "
              "%llu rejected\n",
              static_cast<unsigned long long>(S.RequestsServed),
              static_cast<unsigned long long>(S.RequestsFailed),
              static_cast<unsigned long long>(S.ProtocolErrors),
              static_cast<unsigned long long>(S.RequestsRejected));
  std::printf("result cache: %llu hits, %llu misses; %llu evictions\n",
              static_cast<unsigned long long>(S.ResultCacheHits),
              static_cast<unsigned long long>(S.ResultCacheMisses),
              static_cast<unsigned long long>(S.CacheEvictions));
  std::printf("resident: %llu results (%llu bytes), queue depth %llu\n",
              static_cast<unsigned long long>(S.CachedResults),
              static_cast<unsigned long long>(S.CacheBytes),
              static_cast<unsigned long long>(S.QueueDepth));
  std::printf("latency: p50 %llu us, p99 %llu us\n",
              static_cast<unsigned long long>(S.P50Micros),
              static_cast<unsigned long long>(S.P99Micros));
}

/// `perfplay client`: one request against a running daemon.
int cmdClient(ArgList &Args) {
  std::string Socket = Args.option("--socket", "");
  std::string PairMode = Args.option("--pairs", "adjacent");
  bool NoCache = Args.flag("--no-cache");
  std::string Action = Args.positional();
  if (Socket.empty() || Action.empty()) {
    std::fprintf(stderr, "error: client requires --socket PATH and an "
                         "action (analyze|stats|shutdown)\n");
    return 2;
  }

  serve::ServeClient Client;
  Expected<void> ConnOr = Client.connect(Socket);
  if (!ConnOr) {
    std::fprintf(stderr, "error: %s [%s]\n", ConnOr.message().c_str(),
                 errorCodeName(ConnOr.code()));
    return 1;
  }

  if (Action == "analyze") {
    serve::AnalyzeRequest Req;
    Req.Path = Args.positional();
    if (Req.Path.empty())
      return usage();
    Req.PairMode = PairMode == "all" ? 1 : 0;
    Req.NoCache = NoCache ? 1 : 0;
    Expected<serve::ResultSummary> SumOr = Client.analyze(Req);
    if (!SumOr) {
      std::fprintf(stderr, "error: %s [%s]\n", SumOr.message().c_str(),
                   errorCodeName(SumOr.code()));
      return 1;
    }
    const serve::ResultSummary &S = *SumOr;
    uint64_t Total = S.NullLock + S.ReadRead + S.DisjointWrite + S.Benign;
    std::printf("ULCPs: %llu (NL=%llu RR=%llu DW=%llu benign=%llu), "
                "true contention: %llu%s\n",
                static_cast<unsigned long long>(Total),
                static_cast<unsigned long long>(S.NullLock),
                static_cast<unsigned long long>(S.ReadRead),
                static_cast<unsigned long long>(S.DisjointWrite),
                static_cast<unsigned long long>(S.Benign),
                static_cast<unsigned long long>(S.TrueContention),
                S.FromResultCache ? " [cached]" : "");
    std::printf("transform: %llu causal edges, %llu auxiliary locks, "
                "%llu standalone sections removed\n",
                static_cast<unsigned long long>(S.TopologyEdges),
                static_cast<unsigned long long>(S.NumAuxLocks),
                static_cast<unsigned long long>(S.NumStandalone));
    return 0;
  }
  if (Action == "stats" || Action == "shutdown") {
    Expected<serve::ServeStats> StatsOr =
        Action == "stats" ? Client.stats() : Client.shutdown();
    if (!StatsOr) {
      std::fprintf(stderr, "error: %s [%s]\n", StatsOr.message().c_str(),
                   errorCodeName(StatsOr.code()));
      return 1;
    }
    printServeStats(*StatsOr);
    return 0;
  }
  std::fprintf(stderr, "error: unknown client action '%s'\n",
               Action.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  ArgList Args(Argc, Argv);
  std::string Cmd = Args.positional();
  if (Cmd == "list-apps")
    return cmdListApps();
  if (Cmd == "generate")
    return cmdGenerate(Args);
  if (Cmd == "analyze")
    return cmdAnalyze(Args);
  if (Cmd == "replay")
    return cmdReplay(Args);
  if (Cmd == "record")
    return cmdRecord(Argc, Argv);
  if (Cmd == "casestudy")
    return cmdCaseStudy(Args);
  if (Cmd == "stats")
    return cmdStats(Args);
  if (Cmd == "convert")
    return cmdConvert(Args);
  if (Cmd == "serve")
    return cmdServe(Args);
  if (Cmd == "client")
    return cmdClient(Args);
  return usage();
}
