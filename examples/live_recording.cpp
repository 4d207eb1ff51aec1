//===- examples/live_recording.cpp - record real threads, then debug --------===//
//
// End-to-end demonstration of the recording substrate (the repo's
// stand-in for the paper's Pin instrumentation): real std::threads run
// a producer/consumer-style workload through RecordingMutex/SharedVar,
// the recorder emits a trace (saved to disk in the text format), and
// the PERFPLAY pipeline analyzes it.
//
// Run: ./live_recording [threads] [iters]
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisSession.h"
#include "runtime/Instrument.h"
#include "support/Format.h"
#include "trace/TraceIO.h"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace perfplay;

namespace {

/// Burn a little real CPU so selective recording has computation to
/// collapse into Compute events.
void busyWork(unsigned Amount) {
  volatile uint64_t Sink = 0;
  for (unsigned I = 0; I != Amount * 1000; ++I)
    Sink += I;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned NumThreads =
      Argc > 1 ? static_cast<unsigned>(std::atoi(Argv[1])) : 4;
  unsigned Iters = Argc > 2 ? static_cast<unsigned>(std::atoi(Argv[2])) : 16;

  Recorder R;
  RecordingMutex StatsMu(R, "stats_mutex");
  SharedVar<uint64_t> Done(R, "done_flag");
  SharedVar<uint64_t> Total(R, "total_bytes");
  CodeSiteId PollSite = PERFPLAY_CODE_SITE(R, 58, 66);
  CodeSiteId UpdateSite = PERFPLAY_CODE_SITE(R, 68, 74);

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&, I] {
      ThreadId T = R.registerThread();
      for (unsigned K = 0; K != Iters; ++K) {
        busyWork(20 + I);
        {
          // The "bug": every iteration polls the done flag under the
          // stats lock although it only reads.
          RecordedSection Guard(StatsMu, T, PollSite);
          Done.load(T);
        }
        busyWork(10);
        {
          // Commutative accumulation: benign even though it writes.
          RecordedSection Guard(StatsMu, T, UpdateSite);
          Total.fetchAdd(T, 4096);
        }
      }
    });
  for (auto &Th : Threads)
    Th.join();

  Expected<Trace> Recorded = R.finish();
  if (!Recorded) {
    std::fprintf(stderr, "recording failed: %s [%s]\n",
                 Recorded.message().c_str(), errorCodeName(Recorded.code()));
    return 1;
  }
  Trace Tr = std::move(*Recorded);
  std::string Err;
  const char *Path = "live_recording.trace";
  if (!saveTrace(Tr, Path, Err)) {
    std::fprintf(stderr, "cannot save trace: %s\n", Err.c_str());
    return 1;
  }
  std::printf("recorded %zu events from %u threads -> %s\n",
              Tr.numEvents(), NumThreads, Path);

  // Staged analysis: each stage runs on first request and is cached;
  // the report() call reuses the detect results and both replays.
  AnalysisSession Session{Tr};
  Expected<const DetectResult &> Det = Session.detect();
  if (!Det) {
    std::fprintf(stderr, "pipeline failed: %s [%s]\n",
                 Det.message().c_str(), errorCodeName(Det.code()));
    return 1;
  }
  std::printf("detected ULCPs: RR=%llu benign=%llu (TLCP=%llu)\n",
              static_cast<unsigned long long>(Det->Counts.ReadRead),
              static_cast<unsigned long long>(Det->Counts.Benign),
              static_cast<unsigned long long>(
                  Det->Counts.TrueContention));
  Expected<const ReplayResult &> Orig =
      Session.replay(ScheduleKind::ElscS);
  Expected<const ReplayResult &> Free =
      Session.replayTransformed(ScheduleKind::ElscS);
  Expected<const PerfDebugReport &> Report = Session.report();
  if (!Orig || !Free || !Report) {
    const PipelineError &E = !Orig    ? Orig.error()
                             : !Free ? Free.error()
                                     : Report.error();
    std::fprintf(stderr, "pipeline failed: %s [%s]\n",
                 E.Message.c_str(), errorCodeName(E.Code));
    return 1;
  }
  std::printf("replayed: original %s -> ULCP-free %s\n\n",
              formatNs(Orig->TotalTime).c_str(),
              formatNs(Free->TotalTime).c_str());
  std::printf("%s", renderReport(*Report).c_str());
  return 0;
}
