//===- core/Engine.h - Session factory and batch analysis --------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Engine is the front door of the staged API: it holds the
/// default PipelineOptions and the progress callback, mints
/// AnalysisSessions for single traces, and fans a batch of traces out
/// over worker threads — the multi-trace mode Section 6.7 sketches
/// (debug/MultiTrace.h aggregates the per-trace reports).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_CORE_ENGINE_H
#define PERFPLAY_CORE_ENGINE_H

#include "core/AnalysisSession.h"
#include "debug/MultiTrace.h"
#include "trace/TraceIO.h"

#include <functional>
#include <vector>

namespace perfplay {

/// Front door of the staged API.  Engines are cheap; one per
/// configuration.
class Engine {
public:
  explicit Engine(PipelineOptions Defaults = PipelineOptions())
      : Defaults(std::move(Defaults)) {}

  const PipelineOptions &options() const { return Defaults; }
  PipelineOptions &options() { return Defaults; }

  /// Installs a per-stage progress callback inherited by every session
  /// this engine opens.  analyzeBatch() serializes invocations across
  /// its workers and tags events with the trace's batch index.
  void setProgressCallback(ProgressCallback Callback) {
    Progress = std::move(Callback);
  }

  /// Opens a staged session over \p Tr with this engine's options and
  /// progress callback.  No work happens until a stage is called.
  AnalysisSession openSession(Trace Tr) const;

  /// Opens a session over the trace stored at \p Path, loaded by
  /// openTraceFile (trace/TraceIO.h).  A v3 trace parses straight out
  /// of the file mapping with borrowed names (zero-copy), and the
  /// returned session keeps that mapping alive for its lifetime
  /// (AnalysisSession::setBackingMapping).  Load failures come back as
  /// ErrorCode::TraceIOFailed.
  Expected<AnalysisSession> openSessionFromFile(const std::string &Path) const;

  /// Runs the full pipeline over an already-parsed \p Tr, for callers
  /// that parse from somewhere other than a file path (the serve
  /// daemon parses the bytes it mapped, then caches only the summary
  /// of this result).  Equivalent to
  /// openSession(Tr).analyze() with the engine's options.
  Expected<PipelineResult> analyzeTrace(Trace Tr) const;

  /// Out-of-core detection over the chunked v3 trace at \p Path:
  /// streams chunks through a WindowedReader into a WindowedDetector
  /// in bounded-memory windows of options().WindowEvents events
  /// (0 = chunk-sized), so peak memory is bounded by the window, the
  /// open-section carry, and the signature representatives — never by
  /// the trace.  The result is bit-identical to detect() over the
  /// fully-loaded trace under the same DetectOptions.  Requires a v3
  /// file (`perfplay convert` upgrades text traces); other formats
  /// fail with ErrorCode::TraceIOFailed.  Detection-only: no session
  /// is created and no recording run happens, so the per-lock pairing
  /// order is the file's recorded grant schedule when present, else
  /// global-id order.
  Expected<DetectResult> detectWindowed(const std::string &Path) const;

  /// Analyzes every trace in \p Traces concurrently on up to
  /// \p NumThreads workers (0 = one per hardware thread, capped by the
  /// batch size).  The result vector parallels the input: each element
  /// is the trace's complete PipelineResult or the typed error of its
  /// first failing stage.  One trace's failure never aborts the rest.
  ///
  /// Thread budgets do not multiply: each worker session's detection
  /// runs with options().Detect.NumThreads capped so that
  /// batch-workers x detect-threads never exceeds the machine
  /// (cappedDetectThreads).  With the defaults (Detect.NumThreads = 1)
  /// parallelism is purely across traces.
  std::vector<Expected<PipelineResult>>
  analyzeBatch(std::vector<Trace> Traces, unsigned NumThreads = 0) const;

  /// Streaming consumer for analyzeBatchStreaming: called once per
  /// trace with its batch index and its finished result, in completion
  /// order (NOT trace order).  Invocations are serialized by the
  /// batch, so the consumer needs no locking of its own; the result is
  /// moved in and destroyed after the call returns, which is the whole
  /// point — no batch-sized result vector ever exists.
  ///
  /// The consumer runs with the internal batch mutex held (that is
  /// what serializes it) and therefore must not call back into the
  /// same batch — in particular it must not block waiting on another
  /// item's delivery, which would self-deadlock.  Progress callbacks
  /// share the same mutex and the same rule.
  using BatchResultConsumer =
      std::function<void(size_t TraceIndex, Expected<PipelineResult> Result)>;

  /// Like analyzeBatch, but hands each Expected<PipelineResult> to
  /// \p Consumer as it completes instead of materializing every result:
  /// peak memory holds one in-flight result per worker plus the
  /// lightweight per-trace reports the aggregate needs.  The returned
  /// AggregatedReport is built from the per-trace reports in trace
  /// order, so it is deterministic and identical to
  /// aggregateBatch(analyzeBatch(...)) regardless of completion order.
  AggregatedReport
  analyzeBatchStreaming(std::vector<Trace> Traces,
                        const BatchResultConsumer &Consumer,
                        unsigned NumThreads = 0) const;

  /// Fully streaming batch over trace *files*: each worker loads its
  /// trace on demand (openSessionFromFile semantics — zero-copy mmap,
  /// mapping pinned for the session's lifetime) and
  /// results stream through \p Consumer, so peak memory holds one
  /// trace + one result per worker no matter how large the batch is.
  /// A file that fails to load or parse becomes that index's
  /// ErrorCode::TraceIOFailed result; the rest of the batch is
  /// unaffected.
  AggregatedReport
  analyzeBatchFilesStreaming(const std::vector<std::string> &Paths,
                             const BatchResultConsumer &Consumer,
                             unsigned NumThreads = 0) const;

  /// Detection-thread budget for one of \p BatchWorkers concurrent
  /// sessions when the engine's options request \p Requested
  /// (0 = one per hardware thread): the largest count that keeps
  /// BatchWorkers x result <= hardware threads, floored at 1.
  static unsigned cappedDetectThreads(unsigned Requested,
                                      unsigned BatchWorkers);

private:
  /// Produces item \p Index's session for a batch run, built with the
  /// batch's capped options and shared progress callback — from a
  /// pre-loaded Trace or by loading a file on the worker.
  using SessionSource = std::function<Expected<AnalysisSession>(
      size_t Index, const PipelineOptions &BatchOpts,
      const ProgressCallback &SharedProgress)>;

  /// Shared fan-out of every batch entry point: analyzes \p NumItems
  /// sessions from \p Open on the pool and hands each finished result
  /// to \p Deliver under the batch mutex (serialized, completion
  /// order).
  void runBatch(size_t NumItems, unsigned NumThreads,
                const SessionSource &Open,
                const std::function<void(size_t, Expected<PipelineResult> &&)>
                    &Deliver) const;

  /// Streaming core: runBatch + per-item Consumer + the deterministic
  /// trace-ordered aggregate.
  AggregatedReport streamBatch(size_t NumItems, unsigned NumThreads,
                               const SessionSource &Open,
                               const BatchResultConsumer &Consumer) const;

  PipelineOptions Defaults;
  ProgressCallback Progress;
};

/// Merges the reports of every successful item of an analyzeBatch()
/// result (debug/MultiTrace.h); failed items are counted in
/// AggregatedReport::NumFailed.
AggregatedReport
aggregateBatch(const std::vector<Expected<PipelineResult>> &Batch);

} // namespace perfplay

#endif // PERFPLAY_CORE_ENGINE_H
