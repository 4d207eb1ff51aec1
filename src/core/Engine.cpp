//===- core/Engine.cpp - Session factory and batch analysis -----------------===//

#include "core/Engine.h"

#include "detect/WindowedDetect.h"
#include "support/ThreadAnnotations.h"
#include "support/ThreadPool.h"
#include "trace/TraceV3.h"

#include <algorithm>

using namespace perfplay;

AnalysisSession Engine::openSession(Trace Tr) const {
  return AnalysisSession(std::move(Tr), Defaults, Progress);
}

Expected<AnalysisSession>
Engine::openSessionFromFile(const std::string &Path) const {
  Expected<Trace> Tr = readTraceFile(Path);
  if (!Tr)
    return Tr.error();
  return openSession(std::move(*Tr));
}

/// Every stage of \p Session, which its caller discards next: the
/// caches move into the result instead of being copied (takeRun).
static Expected<PipelineResult> consumeSession(AnalysisSession &Session) {
  PipelineError Err;
  PipelineResult R = Session.takeRun(&Err);
  if (!Err.isSuccess())
    return Err;
  return R;
}

Expected<PipelineResult> Engine::analyzeTrace(Trace Tr) const {
  AnalysisSession Session = openSession(std::move(Tr));
  return consumeSession(Session);
}

Expected<DetectResult>
Engine::detectWindowed(const std::string &Path) const {
  WindowedReader Reader;
  std::string Err;
  if (!Reader.open(Path, Err))
    return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));

  WindowedDetector Detector(Defaults.Detect);
  const uint64_t Window = Defaults.WindowEvents;
  WindowedReader::Chunk Chunk;
  while (Reader.next(Chunk, Err)) {
    const Event *Events = Chunk.Events.data();
    size_t Left = Chunk.Events.size();
    while (Left > 0) {
      size_t Take = Window == 0
                        ? Left
                        : std::min<size_t>(Left, static_cast<size_t>(Window));
      if (!Detector.addEvents(Chunk.Thread, Events, Take, Err))
        return PipelineError(ErrorCode::InvalidTrace, std::move(Err));
      Events += Take;
      Left -= Take;
    }
  }
  // next() returning false is either clean end-of-directory or a decode
  // error; the reader distinguishes them through Err.
  if (!Err.empty())
    return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));

  DetectResult Result;
  if (!Detector.finish(Reader.tables(), Result, Err))
    return PipelineError(ErrorCode::InvalidTrace, std::move(Err));
  return Result;
}

void Engine::runBatch(
    size_t NumItems, unsigned NumThreads, const SessionSource &Open,
    const std::function<void(size_t, Expected<PipelineResult> &&)> &Deliver)
    const {
  if (NumItems == 0)
    return;

  // Progress callbacks and result delivery funnel through one mutex so
  // user callbacks need no locking of their own.  User callbacks run
  // under BatchMu but never re-enter the engine (documented on
  // BatchResultConsumer), and analysis itself takes no engine lock.
  Mutex BatchMu;
  ProgressCallback SharedProgress;
  if (Progress)
    SharedProgress = [this, &BatchMu](const StageEvent &Event) {
      MutexLock Guard(BatchMu);
      Progress(Event);
    };

  auto analyzeOne = [&](size_t I) {
    Expected<AnalysisSession> SessionOr = Open(I, SharedProgress);
    Expected<PipelineResult> Item = [&]() -> Expected<PipelineResult> {
      if (!SessionOr)
        return SessionOr.error();
      SessionOr->setTraceIndex(I);
      // The session dies with this iteration.
      return consumeSession(*SessionOr);
    }();
    MutexLock Guard(BatchMu);
    Deliver(I, std::move(Item));
  };
  parallelFor(resolveThreadCount(NumThreads, NumItems), NumItems, analyzeOne);
}

AggregatedReport Engine::streamBatch(size_t NumItems, unsigned NumThreads,
                                     const SessionSource &Open,
                                     const BatchResultConsumer &Consumer)
    const {
  // Only the lightweight per-trace reports are retained for the
  // aggregate; the full results stream through the consumer and die.
  std::vector<PerfDebugReport> Reports(NumItems);
  std::vector<uint8_t> Succeeded(NumItems, 0);
  runBatch(NumItems, NumThreads, Open,
           [&](size_t I, Expected<PipelineResult> &&Item) {
             if (Item.ok()) {
               Succeeded[I] = 1;
               Reports[I] = Item->Report;
             }
             if (Consumer)
               Consumer(I, std::move(Item));
           });

  // Aggregate in trace order — deterministic no matter which worker
  // finished first, and identical to aggregateBatch(analyzeBatch()).
  std::vector<PerfDebugReport> Ordered;
  unsigned NumFailed = 0;
  for (size_t I = 0; I != NumItems; ++I) {
    if (Succeeded[I])
      Ordered.push_back(std::move(Reports[I]));
    else
      ++NumFailed;
  }
  AggregatedReport Out = aggregateReports(Ordered);
  Out.NumFailed = NumFailed;
  return Out;
}

/// Session source over a pre-loaded trace vector.
static auto traceSource(std::vector<Trace> &Traces,
                        const PipelineOptions &Opts) {
  return [&Traces, &Opts](size_t I, const ProgressCallback &Progress)
             -> Expected<AnalysisSession> {
    return AnalysisSession(std::move(Traces[I]), Opts, Progress);
  };
}

std::vector<Expected<PipelineResult>>
Engine::analyzeBatch(std::vector<Trace> Traces, unsigned NumThreads) const {
  std::vector<Expected<PipelineResult>> Results;
  Results.reserve(Traces.size());
  for (size_t I = 0; I != Traces.size(); ++I)
    Results.emplace_back(
        PipelineError(ErrorCode::BatchItemFailed, "not analyzed"));
  runBatch(Traces.size(), NumThreads, traceSource(Traces, Defaults),
           [&](size_t I, Expected<PipelineResult> &&Item) {
             Results[I] = std::move(Item);
           });
  return Results;
}

AggregatedReport
Engine::analyzeBatchStreaming(std::vector<Trace> Traces,
                              const BatchResultConsumer &Consumer,
                              unsigned NumThreads) const {
  return streamBatch(Traces.size(), NumThreads, traceSource(Traces, Defaults),
                     Consumer);
}

AggregatedReport
Engine::analyzeBatchFilesStreaming(const std::vector<std::string> &Paths,
                                   const BatchResultConsumer &Consumer,
                                   unsigned NumThreads) const {
  return streamBatch(
      Paths.size(), NumThreads,
      [&](size_t I,
          const ProgressCallback &Progress) -> Expected<AnalysisSession> {
        // Each worker loads its own file on demand — input memory is
        // one trace per worker, not the sum of the batch.
        Expected<Trace> Tr = readTraceFile(Paths[I]);
        if (!Tr)
          return Tr.error();
        return AnalysisSession(std::move(*Tr), Defaults, Progress);
      },
      Consumer);
}

AggregatedReport perfplay::aggregateBatch(
    const std::vector<Expected<PipelineResult>> &Batch) {
  std::vector<PerfDebugReport> Reports;
  unsigned NumFailed = 0;
  for (const Expected<PipelineResult> &Item : Batch) {
    if (Item.ok())
      Reports.push_back(Item->Report);
    else
      ++NumFailed;
  }
  AggregatedReport Out = aggregateReports(Reports);
  Out.NumFailed = NumFailed;
  return Out;
}
