//===- sim/Timeline.cpp - Textual replay timelines --------------------------===//

#include "sim/Timeline.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <vector>

using namespace perfplay;

namespace {

/// Activity codes ordered by display precedence (higher wins a bucket).
enum class LaneState : uint8_t {
  Done = 0,     // '.'
  Compute = 1,  // '='
  IdleWait = 2, // '-'
  SpinWait = 3, // 'w'
  Critical = 4, // '#'
};

char laneChar(LaneState S) {
  switch (S) {
  case LaneState::Done:
    return '.';
  case LaneState::Compute:
    return '=';
  case LaneState::IdleWait:
    return '-';
  case LaneState::SpinWait:
    return 'w';
  case LaneState::Critical:
    return '#';
  }
  return '?';
}

} // namespace

std::string perfplay::renderTimeline(const Trace &Tr,
                                     const ReplayResult &R,
                                     unsigned Width) {
  assert(Width > 0 && "need at least one bucket");
  std::ostringstream OS;
  if (R.TotalTime == 0) {
    for (ThreadId T = 0; T != Tr.numThreads(); ++T)
      OS << "T" << T << " |" << std::string(Width, '.') << "|\n";
    return OS.str();
  }

  TimeNs BucketNs = std::max<TimeNs>(R.TotalTime / Width, 1);

  // Paint per-thread lanes: default Compute up to the thread's finish,
  // then overlay waits and critical sections from the CS timings.
  std::vector<std::vector<LaneState>> Lanes(
      Tr.numThreads(), std::vector<LaneState>(Width, LaneState::Done));
  auto bucketOf = [&](TimeNs T) {
    return std::min<size_t>(static_cast<size_t>(T / BucketNs), Width - 1);
  };
  auto paint = [&](ThreadId T, TimeNs From, TimeNs To, LaneState S) {
    if (From >= To)
      return;
    for (size_t I = bucketOf(From); I <= bucketOf(To - 1); ++I)
      if (static_cast<uint8_t>(S) >
          static_cast<uint8_t>(Lanes[T][I]))
        Lanes[T][I] = S;
  };

  for (ThreadId T = 0; T != Tr.numThreads(); ++T)
    paint(T, 0, R.ThreadFinish[T], LaneState::Compute);

  // A thread's sections have consecutive global ids in program order,
  // so one walk over its events pairs each section with its lock.
  for (ThreadId T = 0; T != Tr.numThreads(); ++T) {
    uint32_t Cs = Tr.firstGlobalCsId(T);
    for (const Event &E : Tr.Threads[T].Events) {
      if (!isSectionOpen(E))
        continue;
      if (Cs >= R.Sections.size())
        break;
      const CsTiming &S = R.Sections[Cs++];
      if (S.Granted == NeverNs)
        continue;
      // Waiting style follows the section's lock (spin locks burn CPU).
      bool Spin = Tr.Locks[E.lock()].IsSpin;
      if (S.Arrival != NeverNs)
        paint(T, S.Arrival, S.Granted,
              Spin ? LaneState::SpinWait : LaneState::IdleWait);
      if (S.Released != NeverNs)
        paint(T, S.Granted, S.Released, LaneState::Critical);
    }
  }

  for (ThreadId T = 0; T != Tr.numThreads(); ++T) {
    OS << "T" << T << " |";
    for (LaneState S : Lanes[T])
      OS << laneChar(S);
    OS << "|\n";
  }
  OS << "      '=' compute  '#' critical section  'w' spin-wait  "
        "'-' blocked  '.' done\n";
  return OS.str();
}
