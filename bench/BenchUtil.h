//===- bench/BenchUtil.h - Shared bench helpers ------------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure regeneration binaries: paper
/// reference values (for side-by-side printing), app lookup, the
/// common detect/transform/replay pipeline invocation, and the micro
/// benches' command-line parsing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_BENCH_BENCHUTIL_H
#define PERFPLAY_BENCH_BENCHUTIL_H

#include "core/PerfPlay.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace perfplay {
namespace bench {

/// Table 1 reference row from the paper (unscaled).
struct Table1Row {
  const char *Name;
  uint64_t Locks;
  uint64_t NL;
  uint64_t RR;
  uint64_t DW;
  uint64_t Benign;
};

/// The paper's Table 1, in order.
inline const Table1Row PaperTable1[16] = {
    {"openldap", 1851, 75, 1414, 473, 15},
    {"mysql", 2109, 125, 9822, 2924, 194},
    {"pbzip2", 1281, 2, 1047, 838, 51},
    {"transmissionBT", 352, 15, 111, 123, 29},
    {"handbrake", 18316, 10, 1536, 1143, 189},
    {"blackscholes", 0, 0, 0, 0, 0},
    {"bodytrack", 32642, 0, 1322, 321, 43},
    {"canneal", 34, 0, 0, 0, 0},
    {"dedup", 19352, 231, 2421, 1952, 164},
    {"facesim", 14541, 102, 871, 819, 12},
    {"ferret", 6231, 11, 101, 231, 343},
    {"fluidanimate", 82142, 2, 10501, 6694, 197},
    {"streamcluster", 191, 0, 0, 0, 0},
    {"swaptions", 23, 0, 0, 0, 0},
    {"vips", 33586, 142, 4512, 1142, 26},
    {"x264", 16767, 941, 3841, 412, 84},
};

/// Table 2 reference (grouped ULCPs and best-group share).
struct Table2Row {
  const char *Name;
  unsigned GroupedUlcps;
  double BestP; // ULCP_1.P
};

inline const Table2Row PaperTable2[10] = {
    {"openldap", 18, 0.301},   {"mysql", 57, 0.125},
    {"pbzip2", 4, 0.594},      {"transmissionBT", 2, 0.535},
    {"handbrake", 29, 0.154},  {"blackscholes", 0, 0.0},
    {"bodytrack", 5, 0.209},   {"facesim", 11, 0.312},
    {"fluidanimate", 3, 0.265}, {"swaptions", 0, 0.0},
};

/// Table 3 reference (lockset overhead w/o and w/ DLS).
struct Table3Row {
  const char *Name;
  double WithoutDls;
  double WithDls;
};

inline const Table3Row PaperTable3[11] = {
    {"blackscholes", 0.0, 0.0}, {"bodytrack", 0.053, 0.005},
    {"canneal", 0.002, 0.002},  {"dedup", 0.046, 0.007},
    {"facesim", 0.078, 0.012},  {"ferret", 0.107, 0.036},
    {"fluidanimate", 0.141, 0.043}, {"streamcluster", 0.029, 0.006},
    {"swaptions", 0.004, 0.004}, {"vips", 0.076, 0.024},
    {"x264", 0.050, 0.019},
};

/// Finds an application model by name (the paper's sixteen plus the
/// synthetic corpora); returns nullptr if unknown.
inline const AppModel *findApp(const std::string &Name) {
  for (const AppModel &App : allApps())
    if (App.Name == Name)
      return &App;
  for (const AppModel &App : syntheticApps())
    if (App.Name == Name)
      return &App;
  return nullptr;
}

/// Runs the full pipeline over an app model.
inline PipelineResult runAppPipeline(const AppModel &App, unsigned Threads,
                                     double Scale,
                                     PairModeKind Mode =
                                         PairModeKind::AdjacentCrossThread) {
  Trace Tr = generateWorkload(App.Factory(Threads, Scale));
  PipelineOptions Opts;
  Opts.Detect.PairMode = Mode;
  return runPerfPlay(std::move(Tr), Opts);
}

/// A micro bench's command line.  Each name in \p Options takes a
/// value (`--name VALUE` or `--name=VALUE`); each in \p Flags stands
/// alone.  Any other argument, or an option missing its value, exits 2
/// with an error, as the perfplay CLI does, so a misspelt or removed
/// flag fails instead of running with defaults.
class BenchArgs {
public:
  BenchArgs(int Argc, char **Argv, const std::vector<std::string> &Options,
            const std::vector<std::string> &Flags = {}) {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I], Name = Arg.substr(0, Arg.find('='));
      bool IsOption = std::count(Options.begin(), Options.end(), Name) != 0;
      if (IsOption && Name != Arg) {
        Values[Name] = Arg.substr(Name.size() + 1);
      } else if (IsOption && I + 1 < Argc) {
        Values[Name] = Argv[++I];
      } else if (Name == Arg &&
                 std::count(Flags.begin(), Flags.end(), Name) != 0) {
        Values[Name] = "";
      } else {
        std::fprintf(stderr,
                     IsOption ? "error: option '%s' expects a value\n"
                              : "error: unknown option '%s'\n",
                     Name.c_str());
        std::exit(2);
      }
    }
  }

  /// The value given for option \p Name, or \p Default.
  std::string option(const char *Name, const char *Default) const {
    auto It = Values.find(Name);
    return It == Values.end() ? Default : It->second;
  }

  /// True if flag \p Name was given.
  bool flag(const char *Name) const { return Values.count(Name) != 0; }

private:
  std::map<std::string, std::string> Values;
};

} // namespace bench
} // namespace perfplay

#endif // PERFPLAY_BENCH_BENCHUTIL_H
