//===- bench/e2e/perfplay_e2e.cpp - End-to-end workload runner ------------===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
// Runs one workload of the end-to-end benchmark in this process (so the
// process's peak RSS belongs to that workload alone), timing PerfPlay's
// layers from outside through their public entry points:
// Engine::openSessionFromFile, the AnalysisSession stages,
// simulateLockElision/simulateHtm, the `perfplay serve` daemon over its
// socket, and `perfplay record` around a plain pthread program.
//
// Usage:
//   perfplay_e2e <workload> --seed N --seconds S [--div D] [--setups K]
//                [--trace] [--spans FILE] [--ladder]
//   perfplay_e2e calibrate
//
// The workload runs in the current directory, which holds its inputs.
// --div D shrinks every input D-fold (the smoke mode); --setups K
// repeats the set-up at least K times so its median can be reported;
// --trace records a span around every layer call of every other
// operation and writes them to --spans in Chrome trace-event format;
// --ladder adds the serve rate ladder.
//
// The last stdout line is one JSON object with the raw samples, the
// answer checks, the answers themselves and (with --trace) the
// per-layer values; run.py turns it into the benchmark's metrics.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "serve/Protocol.h"
#include "sim/LockElision.h"
#include "support/Rng.h"
#include "trace/TraceIO.h"
#include "workloads/Apps.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <malloc.h>
#include <map>
#include <optional>
#include <sched.h>
#include <spawn.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace perfplay;

namespace {

// -- Clock and JSON -----------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

/// Seconds since the process started.
double now() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

void sleepUntil(double T) {
  double Delta = T - now();
  if (Delta > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(Delta));
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      C = ' ';
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Builds one JSON object, member by member.
class JsonObject {
public:
  JsonObject &raw(const std::string &Key, const std::string &Json) {
    Body += (Body.empty() ? "" : ",") + quote(Key) + ":" + Json;
    return *this;
  }
  JsonObject &num(const std::string &Key, double V) {
    return raw(Key, number(V));
  }
  JsonObject &str(const std::string &Key, const std::string &V) {
    return raw(Key, quote(V));
  }
  JsonObject &nums(const std::string &Key, const std::vector<double> &Vs) {
    std::string A = "[";
    for (size_t I = 0; I != Vs.size(); ++I)
      A += (I ? "," : "") + number(Vs[I]);
    return raw(Key, A + "]");
  }
  std::string json() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolation quantile (\p Q in [0, 1]).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

uint64_t fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

// -- Spans --------------------------------------------------------------------

/// One timed call into a layer.
struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  int Parent = -1;
  /// The top-level span this one runs under (itself for a root).
  int Root = -1;
  /// Work counters measured at the call (e.g. pairs classified).
  std::vector<std::pair<std::string, double>> Counts;
};

/// In-memory span recorder; written out once, at exit.  Single-threaded:
/// every span is opened and closed on the main thread.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  /// RAII span: opened by the constructor, closed by the destructor.
  /// A no-op when tracing is off.
  class Scope {
  public:
    Scope(Tracer &T, std::string Name) : T(T) {
      if (!T.On)
        return;
      Index = static_cast<int>(T.Spans.size());
      Span S;
      S.Name = std::move(Name);
      S.Parent = T.Current;
      S.Root = T.Current < 0 ? Index : T.Spans[T.Current].Root;
      S.Start = now();
      T.Spans.push_back(std::move(S));
      T.Current = Index;
    }
    ~Scope() {
      if (Index < 0)
        return;
      T.Spans[Index].End = now();
      T.Current = T.Spans[Index].Parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void count(const std::string &Name, double V) {
      if (Index >= 0)
        T.Spans[Index].Counts.emplace_back(Name, V);
    }

  private:
    Tracer &T;
    int Index = -1;
  };

  /// Adds a span from timestamps taken without a Scope (a serve request
  /// is due before it is sent).
  int add(const std::string &Name, double Start, double End, int Parent) {
    Span S;
    S.Name = Name;
    S.Start = Start;
    S.End = End;
    S.Parent = Parent;
    S.Root = Parent < 0 ? static_cast<int>(Spans.size()) : Spans[Parent].Root;
    Spans.push_back(S);
    return static_cast<int>(Spans.size()) - 1;
  }

  /// Each span's duration minus the time its children cover.
  std::vector<double> selfTimes() const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] = Spans[I].End - Spans[I].Start;
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= S.End - S.Start;
    return Self;
  }

  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\":[\n");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      JsonObject Args;
      Args.num("span", static_cast<double>(I))
          .num("parent", S.Parent)
          .num("op", S.Root);
      for (const auto &[Name, V] : S.Counts)
        Args.num(Name, V);
      JsonObject E;
      E.str("name", S.Name)
          .str("ph", "X")
          .num("ts", S.Start * 1e6)
          .num("dur", (S.End - S.Start) * 1e6)
          .num("pid", 1)
          .num("tid", 1)
          .raw("args", Args.json());
      std::fprintf(F, "%s%s\n", E.json().c_str(),
                   I + 1 == Spans.size() ? "" : ",");
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

  /// Whether Scopes record; a traced run switches it per operation.
  bool On;
  std::vector<Span> Spans;
  int Current = -1;
};

// -- Child processes ----------------------------------------------------------

/// A spawned program, killed and reaped if still running when dropped.
class Child {
public:
  Child() = default;
  Child(const Child &) = delete;
  Child &operator=(const Child &) = delete;
  ~Child() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }

  /// Starts \p Argv with stdout redirected to \p StdoutPath.
  bool spawn(const std::vector<std::string> &Argv,
             const std::string &StdoutPath) {
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 1, StdoutPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Rc = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0)
      Pid = -1;
    return Rc == 0;
  }

  /// Waits for exit; true on a zero exit status.  \p MaxRssKb receives
  /// the peak RSS of the child and the descendants it waited for.
  bool wait(uint64_t *MaxRssKb = nullptr) {
    if (Pid <= 0)
      return false;
    int Status = 0;
    struct rusage Usage;
    std::memset(&Usage, 0, sizeof(Usage));
    pid_t Rc;
    do
      Rc = ::wait4(Pid, &Status, 0, &Usage);
    while (Rc < 0 && errno == EINTR);
    Pid = -1;
    if (MaxRssKb)
      *MaxRssKb = static_cast<uint64_t>(Usage.ru_maxrss);
    return Rc > 0 && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  /// True while the child has not exited (reaps it if it has).
  bool running() {
    if (Pid <= 0)
      return false;
    if (::waitpid(Pid, nullptr, WNOHANG) == 0)
      return true;
    Pid = -1;
    return false;
  }

private:
  pid_t Pid = -1;
};

// -- Workload plumbing --------------------------------------------------------

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  unsigned Div = 1;
  unsigned Setups = 3;
  bool Trace = false;
  std::string SpansPath;
  bool Ladder = false;
};

/// What one workload run produced.
struct Outcome {
  std::vector<double> SetupSecs;
  /// Latency of each measured operation, in milliseconds.
  std::vector<double> OpMs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Answer checks: name -> (passed, detail); a failure sticks.
  std::map<std::string, std::pair<bool, std::string>> Checks;
  /// The answers themselves (compared against expected/seed-N.json).
  JsonObject Answers;
  uint64_t PeakRssKb = 0;
  /// Per-layer values measured without spans (daemon and recorder
  /// counters, tracing overhead).
  std::map<std::string, double> Layers;
  JsonObject Info;
  /// Wall time of the measured phase, and the spans that belong to it.
  double PhaseStart = 0;
  double PhaseEnd = 0;
  /// Wall time the traced operations took (what their spans cover).
  double TracedSecs = 0;

  void check(const std::string &Name, bool Ok, const std::string &Detail) {
    auto [It, Fresh] = Checks.try_emplace(Name, Ok, Detail);
    if (!Fresh && It->second.first && !Ok)
      It->second = {Ok, Detail};
  }
};

uint64_t selfPeakRssKb() {
  struct rusage Usage;
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<uint64_t>(Usage.ru_maxrss);
}

const AppModel &findApp(const std::string &Name) {
  for (const AppModel &App : allApps())
    if (App.Name == Name)
      return App;
  std::fprintf(stderr, "perfplay_e2e: unknown app model '%s'\n",
               Name.c_str());
  std::exit(2);
}

/// Generates \p App's trace (no grant schedule: the analysis records
/// one, as it would for a fresh recording) and writes it as v3.
bool writeInput(Tracer &T, const std::string &App, unsigned Threads,
                double Scale, uint64_t Seed, const std::string &Path) {
  Trace Tr;
  {
    Tracer::Scope S(T, "workload.generate");
    WorkloadSpec Spec = findApp(App).Factory(Threads, Scale);
    Spec.Seed = Seed;
    Tr = generateWorkload(Spec);
    S.count("trace.events", static_cast<double>(Tr.numEvents()));
  }
  Tracer::Scope S(T, "trace.write");
  std::string Err;
  if (!saveTrace(Tr, Path, Err, TraceFormat::V3)) {
    std::fprintf(stderr, "perfplay_e2e: cannot write %s: %s\n", Path.c_str(),
                 Err.c_str());
    return false;
  }
  return true;
}

const char *replaySpanName(ScheduleKind K) {
  switch (K) {
  case ScheduleKind::OrigS:
    return "sim.replay.orig";
  case ScheduleKind::ElscS:
    return "sim.replay.elsc";
  case ScheduleKind::SyncS:
    return "sim.replay.sync";
  case ScheduleKind::MemS:
    return "sim.replay.mem";
  }
  return "sim.replay";
}

/// The answer of one analysis: the daemon's parity summary plus the
/// report's fused group count.
struct Answer {
  serve::ResultSummary Summary;
  uint64_t Groups = 0;

  bool operator==(const Answer &O) const {
    return Summary.sameVerdicts(O.Summary) && Groups == O.Groups;
  }

  std::string json() const {
    const serve::ResultSummary &S = Summary;
    JsonObject J;
    J.num("NullLock", static_cast<double>(S.NullLock))
        .num("ReadRead", static_cast<double>(S.ReadRead))
        .num("DisjointWrite", static_cast<double>(S.DisjointWrite))
        .num("Benign", static_cast<double>(S.Benign))
        .num("TrueContention", static_cast<double>(S.TrueContention))
        .num("TryFailEdges", static_cast<double>(S.TryFailEdges))
        .num("TopologyEdges", static_cast<double>(S.TopologyEdges))
        .num("NumAuxLocks", static_cast<double>(S.NumAuxLocks))
        .num("NumStandalone", static_cast<double>(S.NumStandalone))
        .num("OriginalTotalTime", static_cast<double>(S.OriginalTotalTime))
        .num("UlcpFreeTotalTime", static_cast<double>(S.UlcpFreeTotalTime))
        .num("ReportGroups", static_cast<double>(Groups));
    return J.json();
  }
};

/// One `perfplay analyze`: open the file, then every stage.  The
/// stages are called one by one so each gets its own span; run() then
/// assembles the PipelineResult from the session's caches, which is
/// the same work `perfplay analyze` does in one call.
Expected<Answer> analyzeFile(const Engine &Eng, const std::string &Path,
                             Tracer &T) {
  Tracer::Scope Op(T, "core.analyze");
  Expected<AnalysisSession> SessionOr = [&] {
    Tracer::Scope S(T, "trace.load");
    Expected<AnalysisSession> Out = Eng.openSessionFromFile(Path);
    if (Out) {
      S.count("trace.events", static_cast<double>(Out->trace().numEvents()));
      S.count("trace.bytes", static_cast<double>(fileBytes(Path)));
    }
    return Out;
  }();
  if (!SessionOr)
    return SessionOr.error();
  AnalysisSession &Session = *SessionOr;
  {
    Tracer::Scope S(T, "session.record");
    if (Expected<void> R = Session.ensureRecorded(); !R)
      return R.error();
    S.count("session.sections",
            static_cast<double>(Session.trace().numCriticalSections()));
  }
  {
    Tracer::Scope S(T, "detect.detect");
    Expected<const DetectResult &> D = Session.detect();
    if (!D)
      return D.error();
    double Pairs = static_cast<double>(D->Counts.total());
    double Classified = static_cast<double>(D->Stats.NumClassified);
    S.count("detect.pairs", Pairs);
    S.count("detect.classified", Classified);
    S.count("detect.section_keys",
            static_cast<double>(D->Stats.NumSectionKeys));
    S.count("detect.classified_per_pair", Pairs > 0 ? Classified / Pairs : 0);
  }
  {
    Tracer::Scope S(T, "transform.transform");
    Expected<const TransformResult &> X = Session.transform();
    if (!X)
      return X.error();
    S.count("transform.edges", static_cast<double>(X->Topology.numEdges()));
    S.count("transform.aux_locks", static_cast<double>(X->NumAuxLocks));
  }
  const ScheduleKind Scheme = Eng.options().Replay.Schedule;
  {
    Tracer::Scope S(T, replaySpanName(Scheme));
    if (Expected<const ReplayResult &> R = Session.replay(Scheme); !R)
      return R.error();
  }
  {
    Tracer::Scope S(T, replaySpanName(Scheme));
    if (Expected<const ReplayResult &> R = Session.replayTransformed(Scheme);
        !R)
      return R.error();
  }
  {
    Tracer::Scope S(T, "debug.report");
    Expected<const PerfDebugReport &> R = Session.report();
    if (!R)
      return R.error();
    S.count("debug.groups", static_cast<double>(R->Groups.size()));
  }
  PipelineError Err;
  PipelineResult R = Session.run(&Err);
  if (!R.ok())
    return Err;
  return Answer{serve::summarizeResult(R), R.Report.Groups.size()};
}

/// Runs \p Setup at least Opts.Setups times and on until a second of
/// set-up has run (at most five times as often), recording each wall
/// time.  \p Undo, untimed, tears down each set-up but the last.
template <typename Fn, typename UndoFn>
bool timedSetups(const Options &Opts, Tracer &T, Outcome &Out, Fn Setup,
                 UndoFn Undo) {
  double Total = 0;
  for (unsigned I = 0;
       I < Opts.Setups || (Total < 1.0 && I < 5 * Opts.Setups); ++I) {
    if (I != 0 && !Undo())
      return false;
    double T0 = now();
    {
      Tracer::Scope S(T, "bench.setup");
      if (!Setup())
        return false;
    }
    Out.SetupSecs.push_back(now() - T0);
    Total += Out.SetupSecs.back();
  }
  return true;
}

bool nothingToUndo() { return true; }

/// Keeps measuring until \p Opts.Seconds passed and at least
/// \p MinOps operations ran.  A traced run traces every other
/// operation, so the cost of tracing is measured within the run.
template <typename Fn>
void measure(const Options &Opts, Tracer &T, Outcome &Out, unsigned MinOps,
             Fn Op) {
  std::vector<double> Traced, Untraced;
  Out.PhaseStart = now();
  for (unsigned N = 0; N < MinOps || now() - Out.PhaseStart < Opts.Seconds;
       ++N) {
    T.On = Opts.Trace && N % 2 == 0;
    double T0 = now();
    Op();
    Out.OpMs.push_back((now() - T0) * 1e3);
    (T.On ? Traced : Untraced).push_back(Out.OpMs.back());
  }
  Out.PhaseEnd = now();
  T.On = Opts.Trace;
  for (double Ms : Traced)
    Out.TracedSecs += Ms / 1e3;
  if (Opts.Trace)
    Out.Layers["tracing_overhead_frac"] =
        median(Traced) / median(Untraced) - 1;
}

// -- Pipeline workloads -------------------------------------------------------

struct PipelineConfig {
  const char *App;
  double Scale;
  PairModeKind Pairs;
};

/// Each pipeline run analyzes the same model under this many seeds, in
/// turn.  Peak RSS differs by up to 6% between seeds of one model; the
/// peak over three inputs is steadier than any one.
constexpr unsigned PipelineInputs = 3;

int runPipeline(const Options &Opts, const PipelineConfig &Cfg, Tracer &T,
                Outcome &Out) {
  std::vector<std::string> Paths;
  for (unsigned K = 0; K != PipelineInputs; ++K)
    Paths.push_back("input-" + std::to_string(K) + ".v3");
  auto Setup = [&] {
    for (unsigned K = 0; K != PipelineInputs; ++K)
      if (!writeInput(T, Cfg.App, 4, Cfg.Scale / Opts.Div,
                      Opts.Seed * PipelineInputs + K, Paths[K]))
        return false;
    return true;
  };
  if (!timedSetups(Opts, T, Out, Setup, nothingToUndo))
    return 1;

  Engine Eng;
  Eng.options().Detect.PairMode = Cfg.Pairs;
  std::vector<std::optional<Answer>> First(PipelineInputs);
  size_t Next = 0;
  measure(Opts, T, Out, 2 * PipelineInputs, [&] {
    const size_t K = Next++ % PipelineInputs;
    ++Out.Attempted;
    Expected<Answer> A = analyzeFile(Eng, Paths[K], T);
    if (!A) {
      ++Out.Failed;
      Out.check("analysis", false, A.message());
    } else if (!First[K]) {
      First[K] = *A;
    } else if (!(*A == *First[K])) {
      ++Out.Failed;
      Out.check("repeat-identical", false, Paths[K] + ": answers differ");
    }
  });
  Out.check("repeat-identical", Out.Failed == 0,
            std::to_string(Out.Attempted) + " analyses");
  std::string Answers;
  for (const std::optional<Answer> &A : First)
    Answers += (Answers.empty() ? "[" : ",") + (A ? A->json() : "null");
  Out.Answers.raw("analysis", Answers + "]");

  if (Cfg.Pairs == PairModeKind::AllCrossThread)
    for (unsigned K = 0; K != PipelineInputs; ++K) {
      // Independent path: out-of-core windowed detection over the same
      // file must count exactly what the whole-trace session counted.
      Tracer::Scope S(T, "check.windowed");
      Expected<DetectResult> W = Eng.detectWindowed(Paths[K]);
      bool Same = false;
      if (W && First[K]) {
        const serve::ResultSummary &F = First[K]->Summary;
        Same = W->Counts.NullLock == F.NullLock &&
               W->Counts.ReadRead == F.ReadRead &&
               W->Counts.DisjointWrite == F.DisjointWrite &&
               W->Counts.Benign == F.Benign &&
               W->Counts.TrueContention == F.TrueContention &&
               W->TryFailEdges == F.TryFailEdges;
      }
      Out.check("windowed-parity", Same,
                W ? "windowed counts vs whole-trace counts" : W.message());
    }
  Out.PeakRssKb = selfPeakRssKb();
  return 0;
}

// -- replay-sweep -------------------------------------------------------------

int runSweep(const Options &Opts, Tracer &T, Outcome &Out) {
  const std::string Path = "input.v3";
  Engine Eng;
  // Every sweep must replay for real: with room for only two results,
  // the session's replay cache never still holds a result when its
  // {scheme, seed} comes round again.
  Eng.options().Replay.ReplayCacheCapacity = 2;
  std::optional<AnalysisSession> Session;
  auto Setup = [&] {
    if (!writeInput(T, "x264", 4, 64.0 / Opts.Div, Opts.Seed, Path))
      return false;
    {
      Tracer::Scope S(T, "trace.load");
      Expected<AnalysisSession> Opened = Eng.openSessionFromFile(Path);
      if (!Opened) {
        std::fprintf(stderr, "perfplay_e2e: %s\n", Opened.message().c_str());
        return false;
      }
      S.count("trace.events",
              static_cast<double>(Opened->trace().numEvents()));
      S.count("trace.bytes", static_cast<double>(fileBytes(Path)));
      Session.emplace(std::move(*Opened));
    }
    Tracer::Scope S(T, "session.record");
    if (Expected<void> E = Session->ensureRecorded(); !E) {
      std::fprintf(stderr, "perfplay_e2e: %s\n", E.message().c_str());
      return false;
    }
    S.count("session.sections",
            static_cast<double>(Session->trace().numCriticalSections()));
    return true;
  };
  if (!timedSetups(Opts, T, Out, Setup, nothingToUndo))
    return 1;

  std::vector<uint64_t> Seeds;
  for (uint64_t I = 1; I <= 4; ++I)
    Seeds.push_back(Opts.Seed * 4 + I);
  const ScheduleKind Kinds[] = {ScheduleKind::OrigS, ScheduleKind::ElscS,
                                ScheduleKind::SyncS, ScheduleKind::MemS};
  const char *Names[] = {"orig", "elsc", "sync", "mem", "sle", "htm"};
  const CsIndex &Index = *Session->csIndex();

  using Times = std::vector<std::vector<double>>;
  std::optional<Times> First;
  measure(Opts, T, Out, 2, [&] {
    Tracer::Scope Op(T, "sim.sweep");
    Times Got(6);
    for (size_t K = 0; K != 4; ++K)
      for (uint64_t Seed : Seeds) {
        Tracer::Scope S(T, replaySpanName(Kinds[K]));
        ++Out.Attempted;
        Expected<const ReplayResult &> R = Session->replay(Kinds[K], Seed);
        if (!R) {
          ++Out.Failed;
          Out.check("replay", false, R.message());
        }
        Got[K].push_back(R ? static_cast<double>(R->TotalTime) : -1);
      }
    for (uint64_t Seed : Seeds) {
      Tracer::Scope S(T, "sim.replay.sle");
      ++Out.Attempted;
      LockElisionOptions O;
      O.Seed = Seed;
      Got[4].push_back(static_cast<double>(
          simulateLockElision(Session->trace(), Index, O).TotalTime));
    }
    for (uint64_t Seed : Seeds) {
      Tracer::Scope S(T, "sim.replay.htm");
      ++Out.Attempted;
      HtmOptions O;
      O.Seed = Seed;
      Got[5].push_back(static_cast<double>(
          simulateHtm(Session->trace(), Index, O).TotalTime));
    }
    if (!First)
      First = Got;
    else if (Got != *First) {
      Out.Failed += 24;
      Out.check("repeat-identical", false, "sweep answers differ");
    }
  });
  Out.check("repeat-identical", Out.Failed == 0,
            std::to_string(Out.OpMs.size()) + " sweeps");
  JsonObject Answers;
  for (size_t K = 0; K != 6; ++K)
    Answers.nums(Names[K], (*First)[K]);
  Out.Answers.raw("total_time", Answers.json());
  Out.PeakRssKb = selfPeakRssKb();
  return 0;
}

// -- serve-open-loop ----------------------------------------------------------

/// Eight app models, each scaled to ~50k events (~250-300 KB of v3), so
/// which traces a seed makes popular does not change the cost of a hit
/// (the daemon hashes the whole file on every request) or of a miss.
const std::pair<const char *, double> CorpusApps[] = {
    {"handbrake", 4}, {"bodytrack", 4}, {"dedup", 4},    {"facesim", 4},
    {"x264", 4},      {"ferret", 7},    {"fluidanimate", 2.3}, {"vips", 2.1}};
constexpr unsigned CorpusSeeds = 4;
/// Every ColdEvery-th request bypasses the caches (a client re-reading
/// a changed file).  Once warm, the result cache holds every corpus
/// answer, so these are the steady stream of parse + pipeline runs that
/// sets the tail.  They cycle through seeded shuffles of the whole
/// corpus, so every seed pays for the same mix of traces.
constexpr unsigned ColdEvery = 31;
constexpr const char *SocketPath = "d.sock";

/// One request of the open-loop schedule.
struct Request {
  double Due = 0;
  unsigned Target = 0;
  bool NoCache = false;
  double Send = 0;
  double Done = 0;
  /// True when the client was idle before the request was due (so any
  /// lateness at send time is the generator's, not the backlog's).
  bool Idle = false;
  bool Ok = false;
};

/// Poisson arrivals at \p Rate for \p Count requests from \p Start.
/// Cached requests pick their trace from Zipf(0.8) over a seeded
/// popularity order.
std::vector<Request> schedule(Rng &R, double Start, double Rate,
                              size_t Count,
                              const std::vector<unsigned> &Order) {
  const unsigned N = static_cast<unsigned>(Order.size());
  std::vector<double> Weights(N);
  for (unsigned K = 0; K != N; ++K)
    Weights[K] = 1.0 / std::pow(K + 1.0, 0.8);
  std::vector<unsigned> Fresh;
  std::vector<Request> Out(Count);
  double T = Start;
  for (size_t I = 0; I != Count; ++I) {
    Request &Q = Out[I];
    T += -std::log(1.0 - R.nextDouble()) / Rate;
    Q.Due = T;
    Q.NoCache = I % ColdEvery == ColdEvery - 1;
    if (!Q.NoCache) {
      Q.Target = Order[R.nextWeighted(Weights.data(), N)];
      continue;
    }
    if (Fresh.empty()) {
      Fresh = Order;
      for (unsigned K = N; K > 1; --K)
        std::swap(Fresh[K - 1], Fresh[R.nextBelow(K)]);
    }
    Q.Target = Fresh.back();
    Fresh.pop_back();
  }
  return Out;
}

/// Plays \p Reqs against the daemon over one connection, each at its
/// due time or as soon as the previous response arrived: a request that
/// falls due while a miss is being served waits, and that wait counts.
/// (One connection: several would put the daemon's workers on one CPU
/// with each other and with the clients' spin-waits.)
void playOpenLoop(std::vector<Request> &Reqs,
                  const std::vector<std::string> &Paths,
                  const std::vector<serve::ResultSummary> &Reference) {
  serve::ServeClient Client;
  bool Connected = Client.connect(SocketPath).ok();
  for (Request &Q : Reqs) {
    Q.Idle = now() < Q.Due;
    // Sleep to just short of the due time, then spin: a timer wakeup
    // alone would add its own jitter to every latency.
    sleepUntil(Q.Due - 200e-6);
    while (now() < Q.Due) {
    }
    Q.Send = now();
    serve::AnalyzeRequest Req;
    Req.Path = Paths[Q.Target];
    Req.NoCache = Q.NoCache;
    if (Connected) {
      Expected<serve::ResultSummary> Sum = Client.analyze(Req);
      Q.Ok = Sum && Sum->sameVerdicts(Reference[Q.Target]);
    }
    Q.Done = now();
  }
}

bool startDaemon(Child &Daemon, size_t CacheBudget) {
  ::unlink(SocketPath);
  if (!Daemon.spawn({PERFPLAY_E2E_CLI, "serve", "--socket", SocketPath,
                     "--cache-budget", std::to_string(CacheBudget)},
                    "daemon.log"))
    return false;
  for (double Deadline = now() + 10; now() < Deadline;) {
    serve::ServeClient Probe;
    if (Probe.connect(SocketPath).ok())
      return true;
    if (!Daemon.running())
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Asks the daemon to drain and exit, then reaps it.
bool stopDaemon(Child &Daemon, uint64_t *MaxRssKb) {
  serve::ServeClient Client;
  if (!Client.connect(SocketPath).ok() || !Client.shutdown().ok())
    return false;
  return Daemon.wait(MaxRssKb);
}

int runServe(const Options &Opts, Tracer &T, Outcome &Out) {
  const unsigned CorpusSize = std::size(CorpusApps) * CorpusSeeds;
  Rng R(splitMix64(Opts.Seed));
  std::vector<unsigned> Order(CorpusSize);
  for (unsigned I = 0; I != CorpusSize; ++I)
    Order[I] = I;
  for (unsigned I = CorpusSize; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);

  std::vector<std::string> Paths;
  std::vector<serve::ResultSummary> Reference;
  Child Daemon;
  size_t Budget = 0;
  Engine Eng;
  auto Setup = [&] {
    Paths.clear();
    Reference.clear();
    uint64_t CorpusBytes = 0;
    for (unsigned A = 0; A != std::size(CorpusApps); ++A)
      for (unsigned S = 0; S != CorpusSeeds; ++S) {
        std::string Path =
            "corpus-" + std::to_string(Paths.size()) + ".v3";
        if (!writeInput(T, CorpusApps[A].first, 4,
                        CorpusApps[A].second / Opts.Div,
                        Opts.Seed * 1000 + A * CorpusSeeds + S, Path))
          return false;
        CorpusBytes += fileBytes(Path);
        // The in-process answer every daemon response must match.
        Expected<Answer> Ans = analyzeFile(Eng, Path, T);
        if (!Ans) {
          std::fprintf(stderr, "perfplay_e2e: %s\n", Ans.message().c_str());
          return false;
        }
        Reference.push_back(Ans->Summary);
        Paths.push_back(Path);
      }
    // Room for every parse (charged at file size) and every result.
    // With less, evicted results of popular traces come back as
    // misses whose number swings with the seed's popularity order.
    Budget = static_cast<size_t>(CorpusBytes * 2);
    {
      Tracer::Scope S(T, "serve.start");
      if (!startDaemon(Daemon, Budget)) {
        std::fprintf(stderr, "perfplay_e2e: daemon did not start\n");
        return false;
      }
    }
    // Warm-up: one request per trace, least popular first, so the
    // measured phase starts from the steady state.
    Tracer::Scope S(T, "serve.warmup");
    serve::ServeClient Client;
    if (!Client.connect(SocketPath).ok())
      return false;
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      serve::AnalyzeRequest Req;
      Req.Path = Paths[*It];
      Expected<serve::ResultSummary> Sum = Client.analyze(Req);
      if (!Sum || !Sum->sameVerdicts(Reference[*It])) {
        std::fprintf(stderr, "perfplay_e2e: warm-up request failed\n");
        return false;
      }
    }
    return true;
  };
  if (!timedSetups(Opts, T, Out, Setup,
                   [&] { return stopDaemon(Daemon, nullptr); }))
    return 1;

  // Fixed-rate phase: 100 req/s for the run's seconds.
  constexpr double Rate = 100;
  const double Seconds = std::max(Opts.Seconds, 1.0);
  Out.PhaseStart = now() + 0.05;
  std::vector<Request> Reqs = schedule(
      R, Out.PhaseStart, Rate, static_cast<size_t>(Rate * Seconds), Order);
  playOpenLoop(Reqs, Paths, Reference);
  Out.PhaseEnd = now();

  std::vector<double> Late;
  for (const Request &Q : Reqs) {
    ++Out.Attempted;
    Out.Failed += Q.Ok ? 0 : 1;
    Out.OpMs.push_back((Q.Done - Q.Due) * 1e3);
    if (Q.Idle)
      Late.push_back((Q.Send - Q.Due) * 1e3);
    Out.TracedSecs += Out.OpMs.back() / 1e3;
    if (T.On) {
      int Root = T.add("serve.request", Q.Due, Q.Done, -1);
      T.add("serve.queue", Q.Due, Q.Send, Root);
      T.add("serve.rpc", Q.Send, Q.Done, Root);
    }
  }
  Out.check("daemon-parity", Out.Failed == 0,
            std::to_string(Out.Failed) + " of " +
                std::to_string(Out.Attempted) +
                " responses failed or differed from in-process analysis");

  serve::ServeStats Stats;
  {
    serve::ServeClient Client;
    bool Got = false;
    if (Client.connect(SocketPath).ok())
      if (Expected<serve::ServeStats> S = Client.stats()) {
        Stats = *S;
        Got = true;
      }
    Out.check("daemon-stats", Got, "the daemon answered STATS");
  }
  // The daemon's counters include the warm-up.
  Out.Layers["serve.p99_ms"] = quantile(Out.OpMs, 0.99);
  Out.Layers["serve.daemon_p50_us"] = static_cast<double>(Stats.P50Micros);
  Out.Layers["serve.daemon_p99_us"] = static_cast<double>(Stats.P99Micros);
  Out.Layers["serve.wait_ms"] =
      median(Out.OpMs) - static_cast<double>(Stats.P50Micros) / 1e3;
  const uint64_t Lookups = Stats.ResultCacheHits + Stats.ResultCacheMisses;
  Out.Layers["serve.result_hit_frac"] =
      Lookups ? static_cast<double>(Stats.ResultCacheHits) / Lookups : 0;
  Out.Layers["serve.generator_late_ms"] = quantile(Late, 0.99);

  // Rate ladder: x1.5 steps of 1000 requests each while p99 stays
  // within 250 ms and the last request of the step is not left behind.
  if (Opts.Ladder) {
    double MaxRps = quantile(Out.OpMs, 0.99) <= 250 ? Rate : 0;
    JsonObject Steps;
    double StepRate = Rate;
    for (unsigned K = 0; K != 12 && MaxRps == StepRate; ++K) {
      StepRate *= 1.5;
      std::vector<Request> Step =
          schedule(R, now() + 0.05, StepRate, 1000, Order);
      playOpenLoop(Step, Paths, Reference);
      std::vector<double> Lat;
      for (const Request &Q : Step)
        Lat.push_back((Q.Done - Q.Due) * 1e3);
      double P99 = quantile(Lat, 0.99);
      double BehindMs = (Step.back().Send - Step.back().Due) * 1e3;
      Steps.raw(number(StepRate), JsonObject()
                                      .num("p99_ms", P99)
                                      .num("last_send_late_ms", BehindMs)
                                      .json());
      if (P99 <= 250 && BehindMs <= 250)
        MaxRps = StepRate;
    }
    Out.Info.num("serve_max_rps", MaxRps).raw("ladder", Steps.json());
  }

  uint64_t DaemonRssKb = 0;
  Out.check("daemon-shutdown", stopDaemon(Daemon, &DaemonRssKb),
            "daemon drained and exited cleanly");
  Out.PeakRssKb = DaemonRssKb;
  Out.Info.num("cache_budget_bytes", static_cast<double>(Budget))
      .str("daemon", readFile("daemon.log"));
  return 0;
}

// -- record-lockloop ----------------------------------------------------------

/// Parses the recorder's "key value" stats sidecar.
std::map<std::string, uint64_t> readStats(const std::string &Path) {
  std::map<std::string, uint64_t> Out;
  std::istringstream In(readFile(Path));
  std::string Key, Value;
  while (In >> Key && std::getline(In, Value))
    Out[Key] = std::strtoull(Value.c_str(), nullptr, 10);
  return Out;
}

int runRecord(const Options &Opts, Tracer &T, Outcome &Out) {
  constexpr unsigned Threads = 4, Mutexes = 8, Work = 2000;
  const unsigned long Iterations = 30000 / Opts.Div;
  const std::vector<std::string> Program = {
      PERFPLAY_E2E_LOCKLOOP, std::to_string(Threads), std::to_string(Mutexes),
      std::to_string(Iterations), std::to_string(Work),
      std::to_string(Opts.Seed)};
  std::vector<std::string> Recorded = {PERFPLAY_E2E_CLI, "record", "-o",
                                       "rec.v3", "--stats", "rec.stats",
                                       "--quiet", "--"};
  Recorded.insert(Recorded.end(), Program.begin(), Program.end());
  const std::string Want =
      "lockloop sections=" + std::to_string(Threads * Iterations);

  // One run of \p Argv; returns its wall seconds (negative on failure).
  auto Run = [&](const char *Span, const std::vector<std::string> &Argv,
                 std::vector<std::string> &Output, uint64_t *RssKb) {
    Tracer::Scope S(T, Span);
    Child C;
    double T0 = now();
    if (!C.spawn(Argv, "out.txt") || !C.wait(RssKb))
      return -1.0;
    double Secs = now() - T0;
    Output.push_back(readFile("out.txt"));
    return Secs;
  };

  // Set-up: one warm-up run each way (loader, page cache, shim).
  std::vector<std::string> Outputs;
  if (!timedSetups(
          Opts, T, Out,
          [&] {
            return Run("record.run_native", Program, Outputs, nullptr) >= 0 &&
                   Run("record.run_recorded", Recorded, Outputs, nullptr) >= 0;
          },
          nothingToUndo))
    return 1;
  Outputs.clear();

  std::vector<double> Native, Ratios;
  uint64_t Attempts = 0, Drops = 0;
  bool SectionsOk = true;
  Out.PhaseStart = now();
  for (unsigned Pair = 0; Pair < 2 || now() - Out.PhaseStart < Opts.Seconds;
       ++Pair) {
    double N = 0, Rec = 0;
    uint64_t RssKb = 0;
    // Alternate which side runs first so drift hits both equally.
    if (Pair % 2 == 0)
      N = Run("record.run_native", Program, Outputs, nullptr);
    Rec = Run("record.run_recorded", Recorded, Outputs, &RssKb);
    if (Pair % 2 == 1)
      N = Run("record.run_native", Program, Outputs, nullptr);
    std::map<std::string, uint64_t> Stats = readStats("rec.stats");
    Out.Attempted += Stats["attempts"];
    Drops += Stats["drops"];
    Attempts = Stats["attempts"];
    if (N < 0 || Rec < 0 || Stats["ok"] != 1) {
      ++Out.Failed;
      Out.check("recorded-run", false, "a run failed");
      continue;
    }
    if (Stats["drops"] == 0 && Stats["sections"] != Threads * Iterations)
      SectionsOk = false;
    Native.push_back(N);
    Ratios.push_back(Rec / N);
    Out.OpMs.push_back(Rec * 1e3);
    Out.PeakRssKb = std::max(Out.PeakRssKb, RssKb);
  }
  Out.PhaseEnd = now();
  Out.TracedSecs = Out.PhaseEnd - Out.PhaseStart;
  Out.Failed += Drops;

  bool SameOutput = !Outputs.empty() &&
                    Outputs.front().rfind(Want + " ", 0) == 0;
  for (const std::string &O : Outputs)
    SameOutput = SameOutput && O == Outputs.front();
  Out.check("program-output", SameOutput,
            "native and recorded runs print the same line");
  Out.check("sections", SectionsOk,
            "recorded sections == threads x iterations when nothing dropped");
  {
    // The last recording must load and validate.
    Tracer::Scope S(T, "trace.load");
    Expected<Trace> Tr = readTraceFile("rec.v3");
    std::string Invalid = Tr ? Tr->validate() : Tr.message();
    Out.check("trace-valid", Invalid.empty(), Invalid);
    if (Tr && Drops == 0)
      Out.check("trace-sections",
                Tr->numCriticalSections() == Threads * Iterations,
                std::to_string(Tr->numCriticalSections()) + " sections");
    if (Tr)
      S.count("trace.events", static_cast<double>(Tr->numEvents()));
  }

  const double NativeS = median(Native);
  Out.Layers["record.native_s"] = NativeS;
  Out.Layers["record.slowdown"] = median(Ratios);
  Out.Layers["record.attempts"] = static_cast<double>(Attempts);
  Out.Layers["record.drops"] = static_cast<double>(Drops);
  Out.Layers["record.trace_bytes"] = static_cast<double>(fileBytes("rec.v3"));
  Out.Layers["record.ns_per_op"] =
      Attempts ? (median(Out.OpMs) / 1e3 - NativeS) / Attempts * 1e9 : 0;
  return 0;
}

// -- Per-layer aggregation ----------------------------------------------------

/// Metric name of a span's layer ("sim.replay.orig" -> "sim.replay_s.orig").
std::string layerMetric(const std::string &Span) {
  const std::string Replay = "sim.replay.";
  if (Span.rfind(Replay, 0) == 0)
    return "sim.replay_s." + Span.substr(Replay.size());
  if (Span == "core.analyze")
    return "core.self_s";
  return Span + "_s";
}

/// Per-layer values from the spans: for each operation (top-level span)
/// the layer's self time and counters are summed, and the metric is the
/// median over the measured operations that reached the layer — or over
/// the set-up runs and checks when only they did.  Values measured
/// without spans (already in \p Layers) win.
void aggregateLayers(const Tracer &T, const Outcome &Out,
                     std::map<std::string, double> &Layers,
                     JsonObject &SelfTotals) {
  std::vector<double> Self = T.selfTimes();
  // op root -> layer -> summed value
  std::map<int, std::map<std::string, double>> PerRoot;
  std::map<std::string, double> Totals;
  for (size_t I = 0; I != T.Spans.size(); ++I) {
    const Span &S = T.Spans[I];
    std::map<std::string, double> &M = PerRoot[S.Root];
    std::string Metric = layerMetric(S.Name);
    M[Metric] += Self[I];
    if (Metric.rfind("sim.replay_s.", 0) == 0)
      M["sim.replay_s"] += Self[I];
    for (const auto &[Name, V] : S.Counts)
      M[Name] += V;
    const Span &Root = T.Spans[S.Root];
    if (Root.Start >= Out.PhaseStart && Root.End <= Out.PhaseEnd)
      Totals[S.Name] += Self[I];
  }
  std::map<std::string, std::vector<double>> Measured, Outside;
  for (const auto &[Root, M] : PerRoot) {
    const Span &R = T.Spans[Root];
    bool InPhase = R.Start >= Out.PhaseStart && R.End <= Out.PhaseEnd;
    for (const auto &[Name, V] : M)
      (InPhase ? Measured : Outside)[Name].push_back(V);
  }
  for (const auto &[Name, Vs] : Measured)
    Layers.emplace(Name, median(Vs));
  for (const auto &[Name, Vs] : Outside)
    Layers.emplace(Name, median(Vs));
  for (const auto &[Name, V] : Totals)
    SelfTotals.num(Name, V);
}

// -- Entry --------------------------------------------------------------------

/// Effective CPUs: spin throughput on every allowed CPU over spin
/// throughput on one (a 4-vCPU box that delivers one core reads ~1).
double effectiveCpus() {
  cpu_set_t Set;
  unsigned N = ::sched_getaffinity(0, sizeof(Set), &Set) == 0
                   ? static_cast<unsigned>(CPU_COUNT(&Set))
                   : 1;
  auto Spin = [](unsigned Threads) {
    std::atomic<uint64_t> Total{0};
    std::vector<std::thread> Ts;
    double End = now() + 0.25;
    for (unsigned I = 0; I != Threads; ++I)
      Ts.emplace_back([&] {
        uint64_t X = 1, Steps = 0;
        while (now() < End) {
          for (unsigned K = 0; K != 4096; ++K)
            X = X * 6364136223846793005ULL + 1442695040888963407ULL;
          Steps += 4096;
        }
        Total += Steps + (X & 1);
      });
    for (std::thread &T : Ts)
      T.join();
    return static_cast<double>(Total.load());
  };
  double One = Spin(1);
  return One > 0 ? Spin(N) / One : 0;
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  if (Argc < 2)
    return false;
  Opts.Workload = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (A == "--seed")
      Opts.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Opts.Seconds = std::atof(Value().c_str());
    else if (A == "--div")
      Opts.Div = static_cast<unsigned>(std::max(1, std::atoi(Value().c_str())));
    else if (A == "--setups")
      Opts.Setups =
          static_cast<unsigned>(std::max(1, std::atoi(Value().c_str())));
    else if (A == "--trace")
      Opts.Trace = true;
    else if (A == "--spans")
      Opts.SpansPath = Value();
    else if (A == "--ladder")
      Opts.Ladder = true;
    else
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts)) {
    std::fprintf(stderr,
                 "usage: perfplay_e2e <workload> --seed N --seconds S "
                 "[--div D] [--setups K] [--trace] [--spans FILE] "
                 "[--ladder]\n"
                 "       perfplay_e2e calibrate\n");
    return 2;
  }
  if (Opts.Workload == "calibrate") {
    std::printf("%s\n", JsonObject()
                            .num("effective_cpus", effectiveCpus())
                            .str("compiler", PERFPLAY_E2E_COMPILER)
                            .str("build_type", PERFPLAY_E2E_BUILD_TYPE)
                            .json()
                            .c_str());
    return 0;
  }

  // One CPU and one malloc arena for the whole workload: this process,
  // its threads, the daemon and the recorded programs all inherit
  // both.  Virtual CPUs on a shared host deliver anywhere from one to
  // all of their count from one minute to the next, which moves any
  // multi-threaded timing by tens of percent, and per-thread arenas
  // make peak RSS depend on which thread happened to allocate first.
  {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(std::max(::sched_getcpu(), 0), &One);
    ::sched_setaffinity(0, sizeof(One), &One);
    ::mallopt(M_ARENA_MAX, 1);
    ::setenv("MALLOC_ARENA_MAX", "1", 1);
  }

  Tracer T(Opts.Trace);
  Outcome Out;
  int Rc;
  if (Opts.Workload == "mysql-pipeline")
    Rc = runPipeline(Opts, {"mysql", 64, PairModeKind::AdjacentCrossThread},
                     T, Out);
  else if (Opts.Workload == "parsec-pipeline")
    Rc = runPipeline(
        Opts, {"fluidanimate", 32, PairModeKind::AdjacentCrossThread}, T, Out);
  else if (Opts.Workload == "table1-allpairs")
    Rc = runPipeline(Opts, {"x264", 16, PairModeKind::AllCrossThread}, T, Out);
  else if (Opts.Workload == "replay-sweep")
    Rc = runSweep(Opts, T, Out);
  else if (Opts.Workload == "serve-open-loop")
    Rc = runServe(Opts, T, Out);
  else if (Opts.Workload == "record-lockloop")
    Rc = runRecord(Opts, T, Out);
  else {
    std::fprintf(stderr, "perfplay_e2e: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    return 2;
  }
  if (Rc != 0)
    return Rc;

  JsonObject Checks;
  for (const auto &[Name, Result] : Out.Checks)
    Checks.raw(Name, JsonObject()
                         .raw("ok", Result.first ? "true" : "false")
                         .str("detail", Result.second)
                         .json());
  JsonObject Layers, SelfTotals;
  if (T.On) {
    aggregateLayers(T, Out, Out.Layers, SelfTotals);
    if (!Opts.SpansPath.empty() && !T.writeChromeTrace(Opts.SpansPath))
      std::fprintf(stderr, "perfplay_e2e: cannot write %s\n",
                   Opts.SpansPath.c_str());
  }
  for (const auto &[Name, V] : Out.Layers)
    Layers.num(Name, V);
  JsonObject Result;
  Result.str("workload", Opts.Workload)
      .num("seed", static_cast<double>(Opts.Seed))
      .nums("setup_s", Out.SetupSecs)
      .nums("op_ms", Out.OpMs)
      .num("attempted", static_cast<double>(Out.Attempted))
      .num("failed", static_cast<double>(Out.Failed))
      .num("peak_rss_kb", static_cast<double>(Out.PeakRssKb))
      .num("traced_s", Out.TracedSecs)
      .raw("checks", Checks.json())
      .raw("answers", Out.Answers.json())
      .raw("layers", Layers.json())
      .raw("self_s", SelfTotals.json())
      .raw("info", Out.Info.json());
  std::printf("%s\n", Result.json().c_str());
  return 0;
}
