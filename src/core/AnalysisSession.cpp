//===- core/AnalysisSession.cpp - Staged pipeline over one trace ------------===//

#include "core/AnalysisSession.h"

#include <algorithm>

using namespace perfplay;

const char *perfplay::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Success:
    return "success";
  case ErrorCode::InvalidTrace:
    return "invalid-trace";
  case ErrorCode::RecordingFailed:
    return "recording-failed";
  case ErrorCode::OriginalReplayFailed:
    return "original-replay-failed";
  case ErrorCode::TransformedReplayFailed:
    return "transformed-replay-failed";
  case ErrorCode::BatchItemFailed:
    return "batch-item-failed";
  case ErrorCode::IncompatibleOptions:
    return "incompatible-options";
  case ErrorCode::TraceIOFailed:
    return "trace-io-failed";
  case ErrorCode::ProtocolError:
    return "protocol-error";
  case ErrorCode::ServerOverloaded:
    return "server-overloaded";
  }
  return "?";
}

const char *perfplay::stageKindName(StageKind Stage) {
  switch (Stage) {
  case StageKind::Record:
    return "record";
  case StageKind::Detect:
    return "detect";
  case StageKind::Transform:
    return "transform";
  case StageKind::Replay:
    return "replay";
  case StageKind::Report:
    return "report";
  case StageKind::RaceCheck:
    return "race-check";
  }
  return "?";
}

AnalysisSession::AnalysisSession(Trace Tr, PipelineOptions Opts,
                                 ProgressCallback Progress)
    : Tr(std::move(Tr)), Opts(std::move(Opts)),
      Progress(std::move(Progress)) {}

void AnalysisSession::emit(StageKind Stage, bool FromCache) {
  if (!Progress)
    return;
  StageEvent Event;
  Event.Stage = Stage;
  Event.TraceIndex = TraceIndex;
  Event.FromCache = FromCache;
  Progress(Event);
}

Expected<void> AnalysisSession::ensureRecorded() {
  bool Cached = SetupDone;
  Expected<void> Result = setup();
  if (Cached)
    emit(StageKind::Record, /*FromCache=*/true);
  return Result;
}

Expected<void> AnalysisSession::setup() {
  if (SetupDone) {
    if (!SetupError.isSuccess())
      return SetupError;
    return {};
  }
  SetupDone = true;

  std::string Invalid = Validated ? std::string() : Tr.validate();
  if (!Invalid.empty()) {
    SetupError = PipelineError(ErrorCode::InvalidTrace,
                               "invalid input trace: " + Invalid);
    return SetupError;
  }
  Tr.buildCsIndex();

  if (Tr.LockSchedule.empty() && Tr.numCriticalSections() != 0) {
    RecordingRun.emplace(
        recordGrantSchedule(Tr, Opts.RecordSeed, Opts.Replay.Costs));
    if (!RecordingRun->ok()) {
      SetupError = PipelineError(ErrorCode::RecordingFailed,
                                 "recording run failed: " +
                                     RecordingRun->Error);
      return SetupError;
    }
  }
  emit(StageKind::Record, /*FromCache=*/false);
  return {};
}

Expected<const std::vector<std::vector<CsRef>> &>
AnalysisSession::grantSchedule() {
  if (Expected<void> Setup = setup(); !Setup)
    return Setup.error();
  return Tr.LockSchedule;
}

Expected<const CsIndex &> AnalysisSession::csIndex() {
  if (Expected<void> Setup = setup(); !Setup)
    return Setup.error();
  if (!Index)
    Index.emplace(CsIndex::build(Tr));
  return *Index;
}

Expected<const std::vector<TimeNs> &> AnalysisSession::soloArrivals() {
  if (Expected<void> Setup = setup(); !Setup)
    return Setup.error();
  if (!SoloArrivals)
    SoloArrivals.emplace(computeSoloArrivals(Tr, Opts.Replay.Costs));
  return *SoloArrivals;
}

Expected<const DetectResult &> AnalysisSession::detect() {
  if (Detection) {
    emit(StageKind::Detect, /*FromCache=*/true);
    return *Detection;
  }
  Expected<const CsIndex &> Idx = csIndex();
  if (!Idx)
    return Idx.error();
  Detection.emplace(detectUlcps(Tr, *Idx, Opts.Detect));
  emit(StageKind::Detect, /*FromCache=*/false);
  return *Detection;
}

Expected<const TransformResult &> AnalysisSession::transform() {
  if (Transformation) {
    emit(StageKind::Transform, /*FromCache=*/true);
    return *Transformation;
  }
  Expected<const CsIndex &> Idx = csIndex();
  if (!Idx)
    return Idx.error();
  Transformation.emplace(transformTrace(Tr, *Idx));
  emit(StageKind::Transform, /*FromCache=*/false);
  return *Transformation;
}

const ReplayResult &AnalysisSession::replayEntry(bool Transformed,
                                                 ScheduleKind Kind,
                                                 uint64_t Seed) {
  ReplayKey Key{Transformed, Kind, Seed};
  auto It = Replays.find(Key);
  if (It != Replays.end()) {
    // Touch: move to the front of the recency order.
    LruOrder.splice(LruOrder.begin(), LruOrder, It->second.LruIt);
    emit(StageKind::Replay, /*FromCache=*/true);
    return It->second.Result;
  }
  ReplayOptions RO = Opts.Replay;
  RO.Schedule = Kind;
  RO.Seed = Seed;
  const Trace &Target = Transformed ? Transformation->Transformed : Tr;
  It = Replays
           .emplace(Key, ReplayCacheEntry{replayTrace(Target, RO), {}})
           .first;
  LruOrder.push_front(Key);
  It->second.LruIt = LruOrder.begin();
  // Enforce the memory budget: evict least-recently-used results.  The
  // floor of 2 keeps the session's current original + transformed pair
  // (which report() and run() re-find) resident.
  if (size_t Capacity = Opts.Replay.ReplayCacheCapacity) {
    Capacity = std::max<size_t>(Capacity, 2);
    while (Replays.size() > Capacity) {
      Replays.erase(LruOrder.back());
      LruOrder.pop_back();
    }
  }
  emit(StageKind::Replay, /*FromCache=*/false);
  return It->second.Result;
}

Expected<const ReplayResult &>
AnalysisSession::replay(ScheduleKind Kind, std::optional<uint64_t> Seed) {
  if (Expected<void> Setup = setup(); !Setup)
    return Setup.error();
  const ReplayResult &R =
      replayEntry(/*Transformed=*/false, Kind, Seed.value_or(Opts.Replay.Seed));
  if (!R.ok())
    return PipelineError(ErrorCode::OriginalReplayFailed,
                         "original replay failed: " + R.Error);
  return R;
}

Expected<const ReplayResult &>
AnalysisSession::replayTransformed(ScheduleKind Kind,
                                   std::optional<uint64_t> Seed) {
  if (Expected<const TransformResult &> Tx = transform(); !Tx)
    return Tx.error();
  const ReplayResult &R =
      replayEntry(/*Transformed=*/true, Kind, Seed.value_or(Opts.Replay.Seed));
  if (!R.ok())
    return PipelineError(ErrorCode::TransformedReplayFailed,
                         "ULCP-free replay failed: " + R.Error);
  return R;
}

Expected<const PerfDebugReport &> AnalysisSession::report() {
  if (Rpt) {
    emit(StageKind::Report, /*FromCache=*/true);
    return *Rpt;
  }
  // A CountsOnly detection discards the per-pair list this stage
  // ranks; building a report from it would silently claim "no
  // contention" while Counts says otherwise.
  if (Opts.Detect.CountsOnly)
    return PipelineError(
        ErrorCode::IncompatibleOptions,
        "report() needs materialized detection pairs; the session's "
        "DetectOptions use CountsOnly");
  Expected<const DetectResult &> Det = detect();
  if (!Det)
    return Det.error();
  Expected<const ReplayResult &> Orig = replay(Opts.Replay.Schedule);
  if (!Orig)
    return Orig.error();
  Expected<const ReplayResult &> Free =
      replayTransformed(Opts.Replay.Schedule);
  if (!Free)
    return Free.error();
  Rpt.emplace(buildReport(Tr, *Index, Det->Pairs, *Orig, *Free));
  emit(StageKind::Report, /*FromCache=*/false);
  return *Rpt;
}

Expected<const std::vector<RaceReport> &> AnalysisSession::races() {
  if (Races) {
    emit(StageKind::RaceCheck, /*FromCache=*/true);
    return *Races;
  }
  Expected<const TransformResult &> Tx = transform();
  if (!Tx)
    return Tx.error();
  Races.emplace(checkRaces(Tx->Transformed, *Index, Tx->Topology));
  emit(StageKind::RaceCheck, /*FromCache=*/false);
  return *Races;
}

PipelineResult AnalysisSession::run(PipelineError *ErrOut) {
  return runImpl(/*Consume=*/false, ErrOut);
}

PipelineResult AnalysisSession::takeRun(PipelineError *ErrOut) {
  return runImpl(/*Consume=*/true, ErrOut);
}

PipelineResult AnalysisSession::runImpl(bool Consume,
                                        PipelineError *ErrOut) {
  if (ErrOut)
    *ErrOut = PipelineError();
  PipelineResult Result;

  auto Fail = [&](const PipelineError &Err) {
    Result.Error = Err.Message;
    if (ErrOut)
      *ErrOut = Err;
    return Result;
  };
  // In consume mode the stage caches move into the result (and reset)
  // instead of being copied — run() stays repeatable, takeRun() spares
  // a discarded session the deep copies.
  auto Take = [Consume](auto &Cache, auto &Dest) {
    if (Consume) {
      Dest = std::move(*Cache);
      Cache.reset();
    } else {
      Dest = *Cache;
    }
  };

  if (Expected<void> Setup = setup(); !Setup)
    return Fail(Setup.error());

  Expected<const DetectResult &> Det = detect();
  if (!Det)
    return Fail(Det.error());

  Expected<const TransformResult &> Tx = transform();
  if (!Tx)
    return Fail(Tx.error());

  auto TakeReplay = [&](bool Transformed, ReplayResult &Dest) {
    auto It = Replays.find(
        ReplayKey{Transformed, Opts.Replay.Schedule, Opts.Replay.Seed});
    if (Consume) {
      Dest = std::move(It->second.Result);
      LruOrder.erase(It->second.LruIt);
      Replays.erase(It);
    } else {
      Dest = It->second.Result;
    }
  };
  // Legacy assembly keeps a failed replay's partial result in place,
  // exactly as the monolithic pipeline did.
  auto FailReplay = [&](bool Transformed, const PipelineError &Err) {
    Take(Detection, Result.Detection);
    Take(Transformation, Result.Transformation);
    TakeReplay(/*Transformed=*/false, Result.Original);
    if (Transformed)
      TakeReplay(/*Transformed=*/true, Result.UlcpFree);
    return Fail(Err);
  };

  const ReplayResult &Orig = replayEntry(/*Transformed=*/false,
                                         Opts.Replay.Schedule,
                                         Opts.Replay.Seed);
  if (!Orig.ok())
    return FailReplay(
        /*Transformed=*/false,
        PipelineError(ErrorCode::OriginalReplayFailed,
                      "original replay failed: " + Orig.Error));

  const ReplayResult &Free = replayEntry(/*Transformed=*/true,
                                         Opts.Replay.Schedule,
                                         Opts.Replay.Seed);
  if (!Free.ok())
    return FailReplay(
        /*Transformed=*/true,
        PipelineError(ErrorCode::TransformedReplayFailed,
                      "ULCP-free replay failed: " + Free.Error));

  // CountsOnly detection deliberately discards the pair list, so the
  // report stage cannot run; every other stage can.  run() then
  // delivers counts, transformation, and both replays with a
  // default-constructed Report instead of failing the pipeline.
  const bool CountsOnly = Opts.Detect.CountsOnly;
  if (!CountsOnly) {
    Expected<const PerfDebugReport &> Report = report();
    if (!Report)
      return Fail(Report.error());
  }
  if (Opts.CheckRaces)
    if (Expected<const std::vector<RaceReport> &> Rc = races(); !Rc)
      return Fail(Rc.error());

  // Every stage is in cache; assemble (moving in consume mode) last so
  // report()/races() above computed from intact caches.
  Take(Detection, Result.Detection);
  Take(Transformation, Result.Transformation);
  TakeReplay(/*Transformed=*/false, Result.Original);
  TakeReplay(/*Transformed=*/true, Result.UlcpFree);
  if (!CountsOnly)
    Take(Rpt, Result.Report);
  if (Opts.CheckRaces)
    Take(Races, Result.Races);
  return Result;
}

Expected<PipelineResult> AnalysisSession::analyze() {
  PipelineError Err;
  PipelineResult Result = run(&Err);
  if (!Err.isSuccess())
    return Err;
  return Result;
}
