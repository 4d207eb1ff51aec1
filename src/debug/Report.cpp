//===- debug/Report.cpp - Performance debugging report ---------------------===//

#include "debug/Report.h"

#include "debug/UlcpDelta.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace perfplay;

double PerfDebugReport::normalizedDegradation() const {
  if (OriginalTime == 0)
    return 0.0;
  return static_cast<double>(Tpd) / static_cast<double>(OriginalTime);
}

double PerfDebugReport::normalizedCpuWastePerThread() const {
  if (OriginalTime == 0 || NumThreads == 0)
    return 0.0;
  double PerThread =
      static_cast<double>(Trw) / static_cast<double>(NumThreads);
  return PerThread / static_cast<double>(OriginalTime);
}

PerfDebugReport perfplay::buildReport(
    const Trace &Tr, const CsIndex &Index, const std::vector<UlcpPair> &Pairs,
    const ReplayResult &Original, const ReplayResult &UlcpFree) {
  assert(Original.ok() && UlcpFree.ok() && "replays must have succeeded");

  PerfDebugReport Report;
  Report.OriginalTime = Original.TotalTime;
  Report.UlcpFreeTime = UlcpFree.TotalTime;
  Report.Tpd = static_cast<int64_t>(Original.TotalTime) -
               static_cast<int64_t>(UlcpFree.TotalTime);
  Report.SpinWaitOriginal = Original.SpinWaitNs;
  Report.SpinWaitUlcpFree = UlcpFree.SpinWaitNs;
  Report.NumThreads = static_cast<unsigned>(Tr.numThreads());

  // One pass: Equation 1 per unnecessary pair, summed whole and per
  // site pair; Algorithm 2 then fuses the site-pair seeds.
  UlcpSeeds Seeds(Tr, Index);
  for (const UlcpPair &P : Pairs) {
    if (!isUnnecessary(P.Kind))
      continue;
    int64_t Delta = ulcpImprovement(Original, UlcpFree, P);
    Report.SumDelta += Delta;
    Seeds.add(P, Delta);
  }
  // Resource wasting: the paper computes Trw = sum(dT) - Tpd — benefit
  // that does not shorten the critical path.  Our replayer can also
  // measure the waste directly as the spin-wait CPU the transformation
  // eliminates (the paper's canonical waste: spin-lock polling off the
  // critical path); take the stronger of the two signals.
  int64_t OffPath = Report.SumDelta - Report.Tpd;
  int64_t SpinSaved = static_cast<int64_t>(Original.SpinWaitNs) -
                      static_cast<int64_t>(UlcpFree.SpinWaitNs);
  Report.Trw = std::max({OffPath, SpinSaved, int64_t(0)});

  Report.Groups = Seeds.fuse();
  rankUlcpGroups(Report.Groups);
  return Report;
}

std::string perfplay::renderReport(const PerfDebugReport &Report) {
  std::ostringstream OS;
  OS << "PerfPlay ULCP performance report\n";
  OS << "  original replay time : " << formatNs(Report.OriginalTime)
     << "\n";
  OS << "  ULCP-free replay time: " << formatNs(Report.UlcpFreeTime)
     << "\n";
  OS << "  performance degradation (Tpd): "
     << formatNs(Report.Tpd < 0 ? 0 : static_cast<TimeNs>(Report.Tpd))
     << " (" << formatPercent(Report.normalizedDegradation()) << ")\n";
  OS << "  resource wasting (Trw): "
     << formatNs(static_cast<TimeNs>(Report.Trw))
     << " (per-thread "
     << formatPercent(Report.normalizedCpuWastePerThread()) << ")\n";
  OS << "  grouped ULCP code regions: " << Report.Groups.size() << "\n\n";

  Table T;
  T.addRow({"#", "P", "dT", "pairs", "region 1", "region 2"});
  unsigned Rank = 1;
  for (const FusedUlcp &G : Report.Groups) {
    auto regionStr = [](const CodeRegion &R) {
      return R.File + ":" + std::to_string(R.Lines.Begin) + "-" +
             std::to_string(R.Lines.End);
    };
    T.addRow({std::to_string(Rank++), formatPercent(G.P),
              formatNs(static_cast<TimeNs>(G.DeltaNs < 0 ? 0 : G.DeltaNs)),
              std::to_string(G.PairCount), regionStr(G.CR1),
              regionStr(G.CR2)});
  }
  OS << T.render();
  if (!Report.Groups.empty())
    OS << "\nrecommendation: fix the code regions of group #1 first ("
       << formatPercent(Report.Groups.front().P)
       << " of the total ULCP optimization opportunity)\n";
  return OS.str();
}
