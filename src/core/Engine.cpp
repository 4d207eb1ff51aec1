//===- core/Engine.cpp - Session factory and batch analysis -----------------===//

#include "core/Engine.h"

#include "detect/WindowedDetect.h"
#include "support/ThreadAnnotations.h"
#include "support/ThreadPool.h"
#include "trace/TraceV3.h"

#include <algorithm>
#include <optional>

using namespace perfplay;

AnalysisSession Engine::openSession(Trace Tr) const {
  return AnalysisSession(std::move(Tr), Defaults, Progress);
}

Expected<AnalysisSession>
Engine::openParsed(Expected<Trace> Tr, ProgressCallback SessionProgress) const {
  if (!Tr)
    return Tr.error();
  AnalysisSession Session(std::move(*Tr), Defaults,
                          std::move(SessionProgress));
  Session.Validated = true;
  return Session;
}

Expected<AnalysisSession>
Engine::openSessionFromFile(const std::string &Path) const {
  return openParsed(readTraceFile(Path), Progress);
}

Expected<AnalysisSession> Engine::openSessionFromBuffer(const uint8_t *Data,
                                                        size_t Size) const {
  Trace Tr;
  std::string Err;
  if (!parseTraceBuffer(Data, Size, Tr, Err))
    return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));
  return openParsed(std::move(Tr), Progress);
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
      PipelineError Err;
      PipelineResult R = SessionOr->run(&Err);
      if (!Err.isSuccess())
        return Err;
      return R;
    }();
    MutexLock Guard(BatchMu);
    Deliver(I, std::move(Item));
  };
  parallelFor(resolveThreadCount(NumThreads, NumItems), NumItems, analyzeOne);
}

/// The aggregate of a batch's per-item reports in item order; an item
/// without a report (it failed) counts in NumFailed.
static AggregatedReport
aggregateInOrder(std::vector<std::optional<PerfDebugReport>> Items) {
  std::vector<PerfDebugReport> Reports;
  unsigned NumFailed = 0;
  for (std::optional<PerfDebugReport> &Item : Items) {
    if (Item)
      Reports.push_back(std::move(*Item));
    else
      ++NumFailed;
  }
  AggregatedReport Out = aggregateReports(Reports);
  Out.NumFailed = NumFailed;
  return Out;
}

std::vector<Expected<PipelineResult>>
Engine::analyzeBatch(std::vector<Trace> Traces, unsigned NumThreads) const {
  std::vector<Expected<PipelineResult>> Results;
  Results.reserve(Traces.size());
  for (size_t I = 0; I != Traces.size(); ++I)
    Results.emplace_back(
        PipelineError(ErrorCode::BatchItemFailed, "not analyzed"));
  runBatch(
      Traces.size(), NumThreads,
      [&](size_t I,
          const ProgressCallback &SharedProgress) -> Expected<AnalysisSession> {
        return AnalysisSession(std::move(Traces[I]), Defaults, SharedProgress);
      },
      [&](size_t I, Expected<PipelineResult> &&Item) {
        Results[I] = std::move(Item);
      });
  return Results;
}

AggregatedReport
Engine::analyzeBatchFilesStreaming(const std::vector<std::string> &Paths,
                                   const BatchResultConsumer &Consumer,
                                   unsigned NumThreads) const {
  // Only the lightweight per-trace reports are retained for the
  // aggregate; the full results stream through the consumer and die.
  std::vector<std::optional<PerfDebugReport>> Reports(Paths.size());
  runBatch(
      Paths.size(), NumThreads,
      [&](size_t I,
          const ProgressCallback &SharedProgress) -> Expected<AnalysisSession> {
        // Each worker loads its own file on demand — input memory is
        // one trace per worker, not the sum of the batch.
        return openParsed(readTraceFile(Paths[I]), SharedProgress);
      },
      [&](size_t I, Expected<PipelineResult> &&Item) {
        if (Item.ok())
          Reports[I] = Item->Report;
        if (Consumer)
          Consumer(I, std::move(Item));
      });
  // Aggregate in trace order — deterministic no matter which worker
  // finished first, and identical to aggregateBatch(analyzeBatch()).
  return aggregateInOrder(std::move(Reports));
}

AggregatedReport perfplay::aggregateBatch(
    const std::vector<Expected<PipelineResult>> &Batch) {
  std::vector<std::optional<PerfDebugReport>> Reports(Batch.size());
  for (size_t I = 0; I != Batch.size(); ++I)
    if (Batch[I].ok())
      Reports[I] = Batch[I]->Report;
  return aggregateInOrder(std::move(Reports));
}
