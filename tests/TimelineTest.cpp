//===- tests/TimelineTest.cpp - timeline rendering tests ---------------------===//

#include "sim/Timeline.h"

#include "core/AnalysisSession.h"
#include "sim/Replayer.h"
#include "trace/TraceBuilder.h"
#include "workloads/Apps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

using namespace perfplay;

namespace {

Trace contendedTrace(bool Spin) {
  TraceBuilder B;
  LockId Mu = B.addLock("mu", Spin);
  ThreadId T0 = B.addThread();
  ThreadId T1 = B.addThread();
  B.beginCs(T0, Mu);
  B.compute(T0, 1000);
  B.endCs(T0);
  B.compute(T0, 500);
  B.compute(T1, 100);
  B.beginCs(T1, Mu);
  B.compute(T1, 1000);
  B.endCs(T1);
  return B.finish();
}

size_t countChar(const std::string &S, char C) {
  size_t N = 0;
  for (char X : S)
    N += X == C;
  return N;
}

/// Extracts lane \p T (the row starting with "T<t> |").
std::string laneOf(const std::string &Timeline, unsigned T) {
  std::string Needle = "T" + std::to_string(T) + " |";
  size_t Pos = Timeline.find(Needle);
  EXPECT_NE(Pos, std::string::npos);
  size_t Start = Pos + Needle.size();
  size_t End = Timeline.find('|', Start);
  return Timeline.substr(Start, End - Start);
}

} // namespace

TEST(TimelineTest, LanesHaveRequestedWidth) {
  Trace Tr = contendedTrace(false);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok());
  std::string Out = renderTimeline(Tr, R, 40);
  EXPECT_EQ(laneOf(Out, 0).size(), 40u);
  EXPECT_EQ(laneOf(Out, 1).size(), 40u);
}

TEST(TimelineTest, CriticalSectionsMarked) {
  Trace Tr = contendedTrace(false);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok());
  std::string Out = renderTimeline(Tr, R, 60);
  EXPECT_GT(countChar(laneOf(Out, 0), '#'), 0u);
  EXPECT_GT(countChar(laneOf(Out, 1), '#'), 0u);
}

TEST(TimelineTest, BlockedWaitRenderedAsDash) {
  Trace Tr = contendedTrace(/*Spin=*/false);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok());
  std::string Out = renderTimeline(Tr, R, 60);
  EXPECT_GT(countChar(laneOf(Out, 1), '-'), 0u);
  EXPECT_EQ(countChar(laneOf(Out, 1), 'w'), 0u);
}

TEST(TimelineTest, SpinWaitRenderedAsW) {
  Trace Tr = contendedTrace(/*Spin=*/true);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok());
  std::string Out = renderTimeline(Tr, R, 60);
  EXPECT_GT(countChar(laneOf(Out, 1), 'w'), 0u);
}

TEST(TimelineTest, FinishedThreadTailIsDots) {
  Trace Tr = contendedTrace(false);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  ASSERT_TRUE(R.ok());
  std::string Out = renderTimeline(Tr, R, 60);
  // Thread 0 finishes before thread 1: its lane ends in '.'.
  std::string Lane0 = laneOf(Out, 0);
  EXPECT_EQ(Lane0.back(), '.');
}

TEST(TimelineTest, EmptyReplayAllDots) {
  TraceBuilder B;
  B.addThread();
  Trace Tr = B.finish();
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  std::string Out = renderTimeline(Tr, R, 10);
  EXPECT_EQ(laneOf(Out, 0), std::string(10, '.'));
}

TEST(TimelineTest, LegendPresent) {
  Trace Tr = contendedTrace(false);
  ReplayResult R = replayTrace(Tr, ReplayOptions());
  std::string Out = renderTimeline(Tr, R);
  EXPECT_NE(Out.find("spin-wait"), std::string::npos);
}

namespace {

/// The renderer as it was before the single pass: for each granted
/// section it maps the global id back with csRefOf and rescans that
/// thread's events from the start to find the section's lock.  Kept
/// here as the oracle for MatchesRescanningRendererOnEveryApp.
std::string rescanningTimeline(const Trace &Tr, const ReplayResult &R,
                               unsigned Width) {
  std::ostringstream OS;
  if (R.TotalTime == 0) {
    for (ThreadId T = 0; T != Tr.numThreads(); ++T)
      OS << "T" << T << " |" << std::string(Width, '.') << "|\n";
    return OS.str();
  }
  // Precedence order: '.' < '=' < '-' < 'w' < '#'.
  const std::string Rank = ".=-w#";
  TimeNs BucketNs = std::max<TimeNs>(R.TotalTime / Width, 1);
  std::vector<std::string> Lanes(Tr.numThreads(), std::string(Width, '.'));
  auto bucketOf = [&](TimeNs T) {
    return std::min<size_t>(static_cast<size_t>(T / BucketNs), Width - 1);
  };
  auto paint = [&](ThreadId T, TimeNs From, TimeNs To, char C) {
    if (From >= To)
      return;
    for (size_t I = bucketOf(From); I <= bucketOf(To - 1); ++I)
      if (Rank.find(C) > Rank.find(Lanes[T][I]))
        Lanes[T][I] = C;
  };
  for (ThreadId T = 0; T != Tr.numThreads(); ++T)
    paint(T, 0, R.ThreadFinish[T], '=');
  for (uint32_t Cs = 0; Cs != R.Sections.size(); ++Cs) {
    const CsTiming &S = R.Sections[Cs];
    if (S.Granted == NeverNs)
      continue;
    CsRef Ref = Tr.csRefOf(Cs);
    bool Spin = false;
    uint32_t Index = 0;
    for (const Event &E : Tr.Threads[Ref.Thread].Events)
      if (isSectionOpen(E) && Index++ == Ref.Index) {
        Spin = Tr.Locks[E.lock()].IsSpin;
        break;
      }
    if (S.Arrival != NeverNs)
      paint(Ref.Thread, S.Arrival, S.Granted, Spin ? 'w' : '-');
    if (S.Released != NeverNs)
      paint(Ref.Thread, S.Granted, S.Released, '#');
  }
  for (ThreadId T = 0; T != Tr.numThreads(); ++T)
    OS << "T" << T << " |" << Lanes[T] << "|\n";
  OS << "      '=' compute  '#' critical section  'w' spin-wait  "
        "'-' blocked  '.' done\n";
  return OS.str();
}

} // namespace

TEST(TimelineTest, MatchesRescanningRendererOnEveryApp) {
  std::vector<AppModel> Models = allApps();
  Models.insert(Models.end(), syntheticApps().begin(),
                syntheticApps().end());
  for (const AppModel &App : Models) {
    SCOPED_TRACE(App.Name);
    AnalysisSession Session(generateWorkload(App.Factory(4, 1.0)));
    ScheduleKind Kind = Session.options().Replay.Schedule;
    Expected<const TransformResult &> Xf = Session.transform();
    Expected<const ReplayResult &> Orig = Session.replay(Kind);
    Expected<const ReplayResult &> Free = Session.replayTransformed(Kind);
    ASSERT_TRUE(Xf.ok() && Orig.ok() && Free.ok());
    // The recorded replay over the recorded trace and, as `perfplay
    // analyze --timeline` draws both, over the ULCP-free one.
    const std::pair<const Trace *, const ReplayResult *> Cases[] = {
        {&Session.trace(), &*Orig},
        {&Xf->Transformed, &*Orig},
        {&Xf->Transformed, &*Free}};
    for (const auto &[Tr, R] : Cases)
      for (unsigned Width : {1u, 60u, 200u})
        EXPECT_EQ(renderTimeline(*Tr, *R, Width),
                  rescanningTimeline(*Tr, *R, Width))
            << "width " << Width;
  }
}
