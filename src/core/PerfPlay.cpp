//===- core/PerfPlay.cpp - The PERFPLAY pipeline ----------------------------===//

#include "core/PerfPlay.h"

using namespace perfplay;

PipelineResult perfplay::runPerfPlay(Trace Tr, const PipelineOptions &Opts) {
  return AnalysisSession(std::move(Tr), Opts).run();
}
