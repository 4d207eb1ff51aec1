//===- sim/LockElision.cpp - Speculative lock elision baseline --------------===//

#include "sim/LockElision.h"

#include "detect/Classify.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>

using namespace perfplay;

namespace {

/// A section's contention-free [start, end) interval.
struct Interval {
  TimeNs Start = 0;
  TimeNs End = 0;
};

/// Pass 1: contention-free solo execution — every acquire succeeds
/// immediately, so each thread's timeline has no lock waits.  Fills
/// per-section intervals and per-thread finish times.  A section's
/// End - Start is its body cost: exactly the events between its
/// acquire and matching release are charged in between.
void soloSpeculate(const Trace &Tr, const CostModel &Costs,
                   std::vector<Interval> &Solo,
                   std::vector<TimeNs> &ThreadFinish) {
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    TimeNs Clock = 0;
    uint32_t NextIndex = 0;
    std::vector<uint32_t> Open;
    for (const Event &E : Tr.Threads[T].Events) {
      switch (E.Kind) {
      case EventKind::Compute:
        Clock += E.cost();
        break;
      case EventKind::Read:
      case EventKind::Write:
        Clock += Costs.MemAccess;
        break;
      case EventKind::LockAcquire:
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
      case EventKind::TryAcquire: {
        if (!isSectionOpen(E)) {
          Clock += Costs.TryLockFail;
          break;
        }
        uint32_t Cs = Tr.globalCsId(CsRef{T, NextIndex++});
        Solo[Cs].Start = Clock;
        Open.push_back(Cs);
        break;
      }
      case EventKind::LockRelease:
        assert(!Open.empty() && "unbalanced release");
        Solo[Open.back()].End = Clock;
        Open.pop_back();
        break;
      case EventKind::CondWait:
        Clock += Costs.CondWait;
        break;
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        Clock += Costs.CondSignal;
        break;
      case EventKind::ThreadStart:
      case EventKind::ThreadEnd:
        break;
      }
    }
    ThreadFinish[T] = Clock;
  }
}

} // namespace

SpecResult perfplay::speculate(const Trace &Tr, const CsIndex &Index,
                               const SpecModel &Model) {
  SpecResult Result;
  Result.ThreadFinish.assign(Tr.numThreads(), 0);

  std::vector<Interval> Solo(Index.size());
  soloSpeculate(Tr, Model.Costs, Solo, Result.ThreadFinish);

  // Pass 2: conflict resolution per lock in start order.  An abort
  // re-executes the section (body + penalty), shifting everything
  // later on its thread.  Conflicts and random aborts retry; a
  // footprint over capacity aborts deterministically, so retrying is
  // futile.  Retries exhausted -> take the real lock and serialize
  // behind the lock's previous fallback.
  Rng R(Model.Seed);
  std::vector<TimeNs> Shift(Tr.numThreads(), 0);
  const TimeNs LockOps = Model.Costs.LockAcquire + Model.Costs.LockRelease;

  // The current lock's placed sections, per thread in start order.  A
  // placed section of thread U ends at its solo End + Shift[U] (its own
  // redos, fallback wait and lock operations all went into Shift[U]),
  // and Shift[U] is one term shared by all of U's sections.  So a
  // backwards walk over U's list may stop at the first entry whose
  // prefix-max solo end, shifted, is not after the querying start: no
  // earlier section of U is still running.  Without same-lock nesting
  // the walk visits only the sections still running plus one per
  // thread, instead of every placed section.
  struct Placed {
    const CriticalSection *Section;
    TimeNs PrefixMaxEnd;
  };
  std::vector<std::vector<Placed>> PlacedBy(Tr.numThreads());
  std::vector<ThreadId> Present; // Threads with a non-empty list.
  auto ConflictAt = [&](const CriticalSection &Section, TimeNs Start) {
    for (ThreadId U : Present) {
      if (U == Section.Ref.Thread)
        continue;
      const std::vector<Placed> &List = PlacedBy[U];
      for (size_t K = List.size(); K-- != 0;) {
        if (List[K].PrefixMaxEnd + Shift[U] <= Start)
          break;
        const CriticalSection &Other = *List[K].Section;
        // Hardware conflict detection is set-based: benign conflicts
        // abort too (only truly disjoint or read-read sections
        // co-exist).
        if (Solo[Other.GlobalId].End + Shift[U] > Start &&
            classifyPairStatic(Index, Other, Section) ==
                UlcpKind::TrueContention)
          return true;
      }
    }
    return false;
  };

  std::vector<uint32_t> Order;
  for (LockId L = 0; L != Index.numLocks(); ++L) {
    Order = Index.sectionsOfLock(L);
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       return Solo[A].Start < Solo[B].Start;
                     });
    TimeNs LockFreeAt = 0;
    for (uint32_t Cs : Order) {
      const CriticalSection &Section = Index.byGlobalId(Cs);
      ThreadId T = Section.Ref.Thread;
      TimeNs Start = Solo[Cs].Start + Shift[T];
      const TimeNs Body = Solo[Cs].End - Solo[Cs].Start;
      const bool Overflows =
          Section.Reads.Size + Section.Writes.Size > Model.Capacity;

      for (unsigned Attempt = 0;; ++Attempt) {
        bool Conflict = !Overflows && ConflictAt(Section, Start);
        bool RandomAbort = !Overflows && !Conflict &&
                           R.nextBool(Model.RandomAbortRate);
        if (!Overflows && !Conflict && !RandomAbort)
          break; // Commit.

        if (Overflows)
          ++Result.CapacityAborts;
        else if (Conflict)
          ++Result.ConflictAborts;
        else
          ++Result.RandomAborts;
        TimeNs Redo = Body + Model.AbortPenalty;
        Result.WastedNs += Redo;
        Shift[T] += Redo;
        Start += Redo;

        if (Overflows || Attempt + 1 >= Model.MaxRetries) {
          ++Result.Fallbacks;
          TimeNs Grant = std::max(Start, LockFreeAt);
          Shift[T] += Grant - Start + LockOps;
          LockFreeAt = Grant + Body + LockOps;
          break;
        }
      }
      std::vector<Placed> &Mine = PlacedBy[T];
      TimeNs MaxEnd = Solo[Cs].End;
      if (Mine.empty())
        Present.push_back(T);
      else
        MaxEnd = std::max(MaxEnd, Mine.back().PrefixMaxEnd);
      Mine.push_back(Placed{&Section, MaxEnd});
    }
    for (ThreadId U : Present)
      PlacedBy[U].clear();
    Present.clear();
  }

  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    Result.ThreadFinish[T] += Shift[T];
    Result.TotalTime = std::max(Result.TotalTime, Result.ThreadFinish[T]);
  }
  return Result;
}

LockElisionResult perfplay::simulateLockElision(
    const Trace &Tr, const CsIndex &Index,
    const LockElisionOptions &Opts) {
  SpecModel Model;
  Model.AbortPenalty = Opts.AbortPenalty;
  Model.MaxRetries = Opts.MaxRetries;
  Model.RandomAbortRate = Opts.FalseAbortRate;
  Model.Seed = Opts.Seed;
  Model.Costs = Opts.Costs;
  SpecResult S = speculate(Tr, Index, Model);
  LockElisionResult Result;
  Result.TotalTime = S.TotalTime;
  Result.ThreadFinish = std::move(S.ThreadFinish);
  Result.ConflictAborts = S.ConflictAborts;
  Result.FalseAborts = S.RandomAborts;
  Result.Fallbacks = S.Fallbacks;
  Result.WastedNs = S.WastedNs;
  return Result;
}

HtmResult perfplay::simulateHtm(const Trace &Tr, const CsIndex &Index,
                                const HtmOptions &Opts) {
  SpecModel Model;
  Model.Capacity = Opts.Capacity;
  Model.AbortPenalty = Opts.AbortPenalty;
  Model.MaxRetries = Opts.MaxRetries;
  Model.RandomAbortRate = Opts.InterruptAbortRate;
  Model.Seed = Opts.Seed;
  Model.Costs = Opts.Costs;
  SpecResult S = speculate(Tr, Index, Model);
  HtmResult Result;
  Result.TotalTime = S.TotalTime;
  Result.ThreadFinish = std::move(S.ThreadFinish);
  Result.ConflictAborts = S.ConflictAborts;
  Result.CapacityAborts = S.CapacityAborts;
  Result.InterruptAborts = S.RandomAborts;
  Result.Fallbacks = S.Fallbacks;
  Result.WastedNs = S.WastedNs;
  return Result;
}
