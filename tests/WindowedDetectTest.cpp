//===- tests/WindowedDetectTest.cpp - windowed-vs-whole-trace parity --------===//
//
// The windowed detector's contract is bit-identical verdicts: feeding a
// trace through WindowedDetector in bounded-memory windows — any window
// size, any thread interleaving, sections split across window
// boundaries — must reproduce detectUlcps' whole-trace DetectResult
// exactly (pairs in order, counts, stats).  Window sizes cover the
// ISSUE's required shapes: single-event windows (every section carries
// across boundaries), a prime size (misaligned with every section
// length), and one window far larger than the trace.  A second group
// streams a real v3 file through WindowedReader chunk by chunk — the
// out-of-core path the ingest bench gates.
//
//===----------------------------------------------------------------------===//

#include "detect/Detector.h"
#include "detect/WindowedDetect.h"
#include "sim/Replayer.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceV3.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadSpec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace perfplay;

namespace {

void expectSameResult(const DetectResult &Base, const DetectResult &Got,
                      const std::string &Config) {
  EXPECT_EQ(Base.Counts.NullLock, Got.Counts.NullLock) << Config;
  EXPECT_EQ(Base.Counts.ReadRead, Got.Counts.ReadRead) << Config;
  EXPECT_EQ(Base.Counts.DisjointWrite, Got.Counts.DisjointWrite) << Config;
  EXPECT_EQ(Base.Counts.Benign, Got.Counts.Benign) << Config;
  EXPECT_EQ(Base.Counts.TrueContention, Got.Counts.TrueContention)
      << Config;
  EXPECT_EQ(Base.Stats.NumSectionKeys, Got.Stats.NumSectionKeys) << Config;
  EXPECT_EQ(Base.Stats.NumClassified, Got.Stats.NumClassified) << Config;
  ASSERT_EQ(Base.Pairs.size(), Got.Pairs.size()) << Config;
  for (size_t I = 0; I != Base.Pairs.size(); ++I) {
    EXPECT_EQ(Base.Pairs[I].First, Got.Pairs[I].First)
        << Config << " pair " << I;
    EXPECT_EQ(Base.Pairs[I].Second, Got.Pairs[I].Second)
        << Config << " pair " << I;
    EXPECT_EQ(Base.Pairs[I].Kind, Got.Pairs[I].Kind)
        << Config << " pair " << I;
  }
}

/// Streams \p Tr into a WindowedDetector in round-robin windows of
/// \p Window events per thread — deliberately interleaving threads so
/// the arrival order differs from both thread-major and any file
/// order.
DetectResult runWindowed(const Trace &Tr, const DetectOptions &Opts,
                         size_t Window) {
  WindowedDetector D(Opts);
  std::vector<size_t> Pos(Tr.Threads.size(), 0);
  std::string Err;
  bool More = true;
  while (More) {
    More = false;
    for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
      const std::vector<Event> &Ev = Tr.Threads[T].Events;
      if (Pos[T] == Ev.size())
        continue;
      size_t N = std::min(Window, Ev.size() - Pos[T]);
      EXPECT_TRUE(D.addEvents(T, Ev.data() + Pos[T], N, Err)) << Err;
      Pos[T] += N;
      if (Pos[T] != Ev.size())
        More = true;
    }
  }
  DetectResult Out;
  EXPECT_TRUE(D.finish(Tr, Out, Err)) << Err;
  return Out;
}

/// The DetectParallelTest mixed workload: nested locks plus a hot lock
/// cycling through every classification.  No grant schedule, so the
/// per-lock pairing order is the global-id fallback.
Trace mixedTrace() {
  TraceBuilder B;
  LockId Hot = B.addLock("hot");
  LockId Outer = B.addLock("outer");
  LockId Inner = B.addLock("inner");
  CodeSiteId Site = B.addSite("m.cc", "mixed", 1, 99);
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread(),
                               B.addThread()};
  for (unsigned Round = 0; Round != 4; ++Round)
    for (unsigned T = 0; T != Ids.size(); ++T) {
      ThreadId Id = Ids[T];
      B.compute(Id, 10 + Round);
      B.beginCs(Id, Hot, Site);
      switch ((Round + T) % 5) {
      case 0:
        B.write(Id, 1, 42);
        break;
      case 1:
        B.write(Id, 2, 3, WriteOpKind::Add);
        break;
      case 2:
        B.read(Id, 3, 0);
        break;
      case 3:
        B.write(Id, 100 + T, 7);
        break;
      default:
        B.write(Id, 1, 50 + T);
        B.read(Id, 2, 0);
        break;
      }
      B.endCs(Id);
      B.beginCs(Id, Outer, Site);
      B.write(Id, 5, 1, WriteOpKind::Or);
      B.beginCs(Id, Inner);
      B.read(Id, 6, 9);
      B.endCs(Id);
      B.endCs(Id);
    }
  return B.finish();
}

/// A generated application trace with a recorded grant schedule — the
/// schedule-driven pairing order path.
Trace scheduledTrace() {
  Trace Tr = generateWorkload(makeMysql(4, 0.3));
  recordGrantSchedule(Tr, 42);
  return Tr;
}

const size_t WindowSizes[] = {1, 7, 1 << 20};

void checkParity(const Trace &Tr, const DetectOptions &Opts,
                 const char *Tag) {
  DetectResult Whole = detectUlcps(Tr, CsIndex::build(Tr), Opts);
  ASSERT_GT(Whole.Counts.total(), 0u) << Tag;
  for (size_t W : WindowSizes)
    expectSameResult(Whole, runWindowed(Tr, Opts, W),
                     std::string(Tag) + " window=" + std::to_string(W));
}

} // namespace

TEST(WindowedDetectTest, MixedTraceAllCrossThread) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  checkParity(mixedTrace(), Opts, "mixed-all");
}

TEST(WindowedDetectTest, MixedTraceAdjacent) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AdjacentCrossThread;
  checkParity(mixedTrace(), Opts, "mixed-adjacent");
}

TEST(WindowedDetectTest, MixedTraceMaxPairDistance) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.MaxPairDistance = 2;
  checkParity(mixedTrace(), Opts, "mixed-distance");
}

TEST(WindowedDetectTest, MixedTraceStaticOnly) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  Opts.UseReversedReplay = false;
  checkParity(mixedTrace(), Opts, "mixed-static");
}

TEST(WindowedDetectTest, ScheduledWorkloadAdjacent) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AdjacentCrossThread;
  checkParity(scheduledTrace(), Opts, "mysql-adjacent");
}

TEST(WindowedDetectTest, ScheduledWorkloadAllCrossThread) {
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  checkParity(scheduledTrace(), Opts, "mysql-all");
}

TEST(WindowedDetectTest, CountsOnlyMatchesWholeTrace) {
  Trace Tr = mixedTrace();
  DetectOptions Base;
  Base.PairMode = PairModeKind::AllCrossThread;
  DetectResult Whole = detectUlcps(Tr, CsIndex::build(Tr), Base);

  DetectOptions CountOpts = Base;
  CountOpts.CountsOnly = true;
  DetectResult Counted = runWindowed(Tr, CountOpts, 7);
  EXPECT_TRUE(Counted.Pairs.empty());
  EXPECT_EQ(Counted.Counts.total(), Whole.Counts.total());
  EXPECT_EQ(Counted.Counts.TrueContention, Whole.Counts.TrueContention);
}

TEST(WindowedDetectTest, SingleEventWindowsCarryOpenSections) {
  // With one-event windows every critical section spans window
  // boundaries, so the carry machinery is exercised by construction.
  Trace Tr = mixedTrace();
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  WindowedDetector D(Opts);
  std::string Err;
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T)
    for (const Event &E : Tr.Threads[T].Events)
      ASSERT_TRUE(D.addEvents(T, &E, 1, Err)) << Err;
  EXPECT_GT(D.peakOpenEvents(), 0u);
  EXPECT_EQ(D.openEvents(), 0u); // Everything closed at end of stream.
  EXPECT_EQ(D.numSections(), Tr.numCriticalSections());
  DetectResult Out;
  ASSERT_TRUE(D.finish(Tr, Out, Err)) << Err;
  expectSameResult(detectUlcps(Tr, CsIndex::build(Tr), Opts), Out,
                   "single-event");
}

TEST(WindowedDetectTest, RepresentativesAreSharedAcrossDuplicates) {
  // 2 threads x 6 identical sections: one signature, one
  // representative — the sharing the bounded-memory claim rests on.
  // Every dynamic pair is still classified.
  TraceBuilder B;
  LockId Mu = B.addLock("mu");
  CodeSiteId Site = B.addSite("k.cc", "inc", 1, 5);
  std::vector<ThreadId> Ids = {B.addThread(), B.addThread()};
  for (unsigned I = 0; I != 6; ++I)
    for (ThreadId T : Ids) {
      B.beginCs(T, Mu, Site);
      B.write(T, 9, 1, WriteOpKind::Add);
      B.endCs(T);
    }
  Trace Tr = B.finish();
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  WindowedDetector D(Opts);
  std::string Err;
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T)
    ASSERT_TRUE(D.addEvents(T, Tr.Threads[T].Events.data(),
                            Tr.Threads[T].Events.size(), Err))
        << Err;
  EXPECT_EQ(D.numSignatures(), 1u);
  DetectResult Out;
  ASSERT_TRUE(D.finish(Tr, Out, Err)) << Err;
  EXPECT_GT(Out.Counts.total(), 1u);
  EXPECT_EQ(Out.Stats.NumClassified, Out.Counts.total());
  EXPECT_EQ(Out.Counts.Benign, Out.Counts.total());
  expectSameResult(detectUlcps(Tr, CsIndex::build(Tr), Opts), Out,
                   "shared representative");
}

TEST(WindowedDetectTest, StructuralErrorsAreReported) {
  DetectOptions Opts;
  std::string Err;
  {
    WindowedDetector D(Opts);
    Event Rel = Event::lockRelease(0);
    EXPECT_FALSE(D.addEvents(0, &Rel, 1, Err));
    EXPECT_NE(Err.find("release without matching acquire"),
              std::string::npos)
        << Err;
  }
  {
    WindowedDetector D(Opts);
    Event Open[] = {Event::lockAcquire(0, 0)};
    ASSERT_TRUE(D.addEvents(0, Open, 1, Err)) << Err;
    Event Rel = Event::lockRelease(1);
    EXPECT_FALSE(D.addEvents(0, &Rel, 1, Err));
    EXPECT_NE(Err.find("mismatched lock release"), std::string::npos)
        << Err;
  }
  {
    WindowedDetector D(Opts);
    Event Open[] = {Event::lockAcquire(0, 0)};
    ASSERT_TRUE(D.addEvents(0, Open, 1, Err)) << Err;
    Trace Tables;
    Tables.Locks.resize(1);
    DetectResult Out;
    EXPECT_FALSE(D.finish(Tables, Out, Err));
    EXPECT_NE(Err.find("still open"), std::string::npos) << Err;
  }
}

//===----------------------------------------------------------------------===//
// Out-of-core: stream a real v3 file through WindowedReader.
//===----------------------------------------------------------------------===//

namespace {

/// Streams the chunks of a v3 file into a WindowedDetector, slicing
/// each chunk's events into windows of \p Window (0 = whole chunks),
/// and finishes against the reader's accumulated side tables.
DetectResult runFromFile(const std::string &Path,
                         const DetectOptions &Opts, size_t Window) {
  WindowedReader Reader;
  std::string Err;
  EXPECT_TRUE(Reader.open(Path, Err)) << Err;
  WindowedDetector D(Opts);
  WindowedReader::Chunk Chunk;
  while (Reader.next(Chunk, Err)) {
    const std::vector<Event> &Ev = Chunk.Events;
    size_t Step = Window == 0 ? Ev.size() : Window;
    for (size_t Off = 0; Off < Ev.size(); Off += Step)
      EXPECT_TRUE(D.addEvents(Chunk.Thread, Ev.data() + Off,
                              std::min(Step, Ev.size() - Off), Err))
          << Err;
  }
  EXPECT_TRUE(Err.empty()) << Err;
  DetectResult Out;
  EXPECT_TRUE(D.finish(Reader.tables(), Out, Err)) << Err;
  return Out;
}

} // namespace

TEST(WindowedDetectTest, V3FileStreamMatchesWholeTrace) {
  Trace Tr = scheduledTrace();
  std::string Path = testing::TempDir() + "/perfplay_windowed_detect.v3trace";
  std::string Err;
  // Tiny chunks so the file has many of them and sections span chunk
  // boundaries relative to the reader's windows.
  ASSERT_TRUE(saveTraceV3(Tr, Path, Err, /*TargetChunkBytes=*/1024)) << Err;

  for (PairModeKind Mode :
       {PairModeKind::AdjacentCrossThread, PairModeKind::AllCrossThread}) {
    DetectOptions Opts;
    Opts.PairMode = Mode;
    DetectResult Whole = detectUlcps(Tr, CsIndex::build(Tr), Opts);
    ASSERT_GT(Whole.Counts.total(), 0u);
    for (size_t Window : {size_t(0), size_t(7), size_t(1) << 20})
      expectSameResult(Whole, runFromFile(Path, Opts, Window),
                       "v3 mode=" +
                           std::to_string(static_cast<int>(Mode)) +
                           " window=" + std::to_string(Window));
  }
  std::remove(Path.c_str());
}

// The extended vocabulary through the windowed path: an rwlock/
// trylock/condvar-heavy generated workload must produce identical
// verdicts — and identical trylock-failure edge counters — whether
// detected whole-trace, via in-memory windows, or streamed from a
// chunked v3 file.
TEST(WindowedDetectTest, ExtendedVocabularyParity) {
  Trace Tr = generateWorkload(makeRwMix(4, 0.5));
  recordGrantSchedule(Tr, 42);
  DetectOptions Opts;
  Opts.PairMode = PairModeKind::AllCrossThread;
  DetectResult Whole = detectUlcps(Tr, CsIndex::build(Tr), Opts);
  // The corpus must actually exercise the new rules, or parity is
  // vacuous.
  ASSERT_GT(Whole.Counts.ReadRead, 0u);
  ASSERT_GT(Whole.TryFailEdges, 0u);

  for (size_t W : WindowSizes) {
    DetectResult Got = runWindowed(Tr, Opts, W);
    expectSameResult(Whole, Got, "extended window=" + std::to_string(W));
    EXPECT_EQ(Whole.TryFailEdges, Got.TryFailEdges) << W;
    EXPECT_EQ(Whole.TryFailPerLock, Got.TryFailPerLock) << W;
  }

  std::string Path = testing::TempDir() + "/perfplay_windowed_ext.v3trace";
  std::string Err;
  ASSERT_TRUE(saveTraceV3(Tr, Path, Err, /*TargetChunkBytes=*/1024)) << Err;
  DetectResult Streamed = runFromFile(Path, Opts, 7);
  expectSameResult(Whole, Streamed, "extended v3 stream");
  EXPECT_EQ(Whole.TryFailEdges, Streamed.TryFailEdges);
  EXPECT_EQ(Whole.TryFailPerLock, Streamed.TryFailPerLock);
  std::remove(Path.c_str());
}

// The whole-trace and windowed detectors share one pair enumerator;
// this sweep pins that they agree on every application shape the
// generators produce — all sixteen Table 1 applications plus the
// synthetic rwlock/trylock/condvar mix — in both pair modes: pairs in
// order, counts, and classifications computed.
const std::vector<AppModel> &sweepApps() {
  static const std::vector<AppModel> Apps = [] {
    std::vector<AppModel> All = allApps();
    All.insert(All.end(), syntheticApps().begin(), syntheticApps().end());
    return All;
  }();
  return Apps;
}

class WindowedAppSweepTest : public testing::TestWithParam<size_t> {};

TEST_P(WindowedAppSweepTest, MatchesWholeTrace) {
  const AppModel &App = sweepApps()[GetParam()];
  Trace Tr = generateWorkload(App.Factory(4, 0.1));
  recordGrantSchedule(Tr, 42);
  CsIndex Index = CsIndex::build(Tr);
  for (PairModeKind Mode :
       {PairModeKind::AdjacentCrossThread, PairModeKind::AllCrossThread}) {
    DetectOptions Opts;
    Opts.PairMode = Mode;
    const std::string Tag =
        App.Name +
        (Mode == PairModeKind::AllCrossThread ? " all" : " adjacent");
    DetectResult Whole = detectUlcps(Tr, Index, Opts);
    // blackscholes takes no lock at all (Table 1): its parity is the
    // empty result.  Every other application yields pairs.
    if (Index.size() != 0)
      ASSERT_GT(Whole.Counts.total(), 0u) << Tag;
    expectSameResult(Whole, runWindowed(Tr, Opts, 7), Tag);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, WindowedAppSweepTest,
    testing::Range<size_t>(0, sweepApps().size()),
    [](const testing::TestParamInfo<size_t> &Info) {
      return sweepApps()[Info.param].Name;
    });
