//===- sim/Replayer.cpp - Deterministic trace replay -----------------------===//

#include "sim/Replayer.h"

#include "support/Rng.h"

#include <algorithm>
#include <cassert>

using namespace perfplay;

namespace {

/// The discrete-event replay engine.  See Replayer.h for semantics.
class Engine {
public:
  Engine(const Trace &Tr, const ReplayOptions &Opts);

  /// When true, per-access completion times are captured into MemTimes
  /// (the MEM-S pre-replay, run under ELSC-S).
  bool CaptureMemTimes = false;
  /// Per-thread, per-access completion times: filled when capturing;
  /// under MEM-S, the pre-replay's times whose merge is the enforced
  /// global access order.
  std::vector<std::vector<TimeNs>> MemTimes;

  /// Runs the replay once; the result is moved out of the engine.
  ReplayResult run();

private:
  enum class StatusKind { Running, WaitAcquire, WaitMem, Done };

  struct ThreadState {
    size_t PC = 0;
    TimeNs Clock = 0;
    StatusKind Status = StatusKind::Running;
    /// Global id of this thread's first critical section; its next one
    /// is CsBase + NextCsIndex.
    uint32_t CsBase = 0;
    uint32_t NextCsIndex = 0;
    /// Open critical sections (global ids), innermost last.
    std::vector<uint32_t> OpenCs;
    /// Pending acquire (valid while WaitAcquire).
    uint32_t PendingCs = InvalidId;
    std::vector<LockId> PendingLocks;
    bool PendingHasLockset = false;
    /// Lockset id of the pending acquire (InvalidId = plain {Lock});
    /// kept so the dynamic locking strategy can re-evaluate END flags
    /// as other threads' releases become known.
    LocksetId PendingLockset = InvalidId;
    /// Whether the pending acquire is reader-side (rwlock Shared
    /// mode): shared grants coexist with other shared holders and
    /// only exclude exclusive ones.
    bool PendingShared = false;
    TimeNs Arrival = 0;
    /// End of the last sync point; precursor-segment start of the next
    /// critical section.
    TimeNs LastSyncEnd = 0;
    /// Next shared-access index on this thread.
    size_t MemIdx = 0;
    /// Released sections whose successor segment is still running.
    std::vector<uint32_t> AwaitSuccessor;
  };

  /// 32 bytes: a ULCP-free trace has one per auxiliary lock.
  struct LockState {
    TimeNs FreeAt = 0;
    /// Latest reader-side release so far; the earliest instant a
    /// writer can be granted after readers drain.
    TimeNs SharedFreeAt = 0;
    ThreadId Holder = InvalidId;
    /// Current reader-side holders; an exclusive grant needs both
    /// !Held and Shared == 0.
    uint32_t Shared = 0;
    uint32_t Cursor = 0; // Into EnforcedOrder (granted entries skipped).
    bool Held = false;
  };
  static_assert(sizeof(LockState) == 32, "LockState grew");

  /// A grant candidate found by the selection scan.
  struct Candidate {
    bool IsMem = false;
    ThreadId Thread = InvalidId;
    TimeNs Time = 0;
    uint64_t TieBreak = 0;
    bool Valid = false;
  };

  const Trace &Tr;
  ReplayOptions Opts;
  ReplayResult Result;

  std::vector<ThreadState> Threads;
  std::vector<LockState> Locks;
  /// Per-lock enforced grant order (global CS ids); an empty order
  /// enforces nothing.  Only sized when lockOrderEnforced(), so a
  /// ULCP-free replay allocates none.  A CS's grant and release times
  /// are Result.Sections[Cs].Granted / .Released (NeverNs until they
  /// happen).
  std::vector<std::vector<uint32_t>> EnforcedOrder;
  /// What a granted CS holds until its release: the locks
  /// HeldLocks[Begin, Begin + Count), in Shared mode (rwlock reader)
  /// or exclusively.  Each CS is granted at most once, so HeldLocks
  /// only grows.
  struct Holding {
    uint32_t Begin = 0;
    uint32_t Count = 0;
    bool Shared = false;
  };
  std::vector<Holding> Holdings;
  std::vector<LockId> HeldLocks;
  /// RULE 2 predecessors of CS c: PredIds[PredBegin[c], PredBegin[c + 1]).
  std::vector<uint32_t> PredBegin;
  std::vector<uint32_t> PredIds;
  /// Threads that have not reached ThreadEnd.
  size_t Live = 0;
  /// MEM-S: thread owning the next access in the enforced order
  /// (InvalidId once every access is granted), and when the serialized
  /// memory system frees up.
  ThreadId MemHead = InvalidId;
  TimeNs MemFreeAt = 0;

  bool memSerialized() const {
    return Opts.Schedule == ScheduleKind::MemS && !CaptureMemTimes;
  }

  bool lockOrderEnforced() const {
    // Recorded per-lock order only applies to untransformed traces; in
    // transformed traces ordering is carried by RULE 2 constraints.
    if (!Tr.Locksets.empty())
      return false;
    return Opts.Schedule != ScheduleKind::OrigS;
  }

  TimeNs jitteredCost(ThreadId T, size_t PC, TimeNs Cost) const;
  void resolvePendingLocks(ThreadState &TS, const Event &E, uint32_t Cs);
  void refreshPendingLocks(ThreadState &TS);
  void flushSuccessors(ThreadState &TS, TimeNs Now);
  void advanceThread(ThreadId T);
  Candidate scanAcquires(bool IgnoreOrder) const;
  Candidate scanMem() const;
  void grantAcquire(ThreadId T, TimeNs When);
  void grantMem(ThreadId T, TimeNs When);
  void pickMemHead();
  uint32_t orderHead(LockId L) const;

  bool granted(uint32_t Cs) const {
    return Result.Sections[Cs].Granted != NeverNs;
  }
};

} // namespace

Engine::Engine(const Trace &Tr, const ReplayOptions &Opts)
    : Tr(Tr), Opts(Opts) {
  size_t NumCs = Tr.numCriticalSections();
  Threads.resize(Tr.numThreads());
  for (ThreadId T = 0; T != Threads.size(); ++T)
    Threads[T].CsBase = Tr.firstGlobalCsId(T);
  Locks.resize(Tr.Locks.size());
  Holdings.resize(NumCs);
  // RULE 2 predecessors as CSR, each list in constraint order.
  PredBegin.assign(NumCs + 1, 0);
  for (const OrderConstraint &C : Tr.Constraints)
    ++PredBegin[C.After + 1];
  for (size_t Cs = 0; Cs != NumCs; ++Cs)
    PredBegin[Cs + 1] += PredBegin[Cs];
  PredIds.resize(Tr.Constraints.size());
  std::vector<uint32_t> Fill(PredBegin.begin(), PredBegin.end() - 1);
  for (const OrderConstraint &C : Tr.Constraints)
    PredIds[Fill[C.After]++] = C.Before;

  Result.Sections.resize(NumCs);
  Result.ThreadFinish.assign(Tr.numThreads(), 0);
  Result.ThreadSpinWaitNs.assign(Tr.numThreads(), 0);
  Result.GrantSchedule.assign(Tr.Locks.size(), {});

  // Build the enforced per-lock order for the chosen scheme.
  if (lockOrderEnforced()) {
    EnforcedOrder.assign(Tr.Locks.size(), {});
    if (Opts.Schedule == ScheduleKind::ElscS ||
        Opts.Schedule == ScheduleKind::MemS) {
      // ELSC: exactly the recorded schedule.  MEM-S piggybacks on it so
      // the enforced memory order (derived from an ELSC pre-replay)
      // can never contradict the lock order.
      for (LockId L = 0; L != Tr.LockSchedule.size(); ++L)
        for (const CsRef &Ref : Tr.LockSchedule[L])
          EnforcedOrder[L].push_back(Tr.globalCsId(Ref));
    } else {
      assert(Opts.Schedule == ScheduleKind::SyncS && "covered above");
      // SYNC-S: input-derived deterministic order.
      EnforcedOrder = computeSyncOrder(Tr, Opts.Costs);
    }
  }
}

TimeNs Engine::jitteredCost(ThreadId T, size_t PC, TimeNs Cost) const {
  if (Opts.Schedule != ScheduleKind::OrigS || Opts.OrigJitter <= 0.0)
    return Cost;
  uint64_t H = splitMix64(Opts.Seed ^ (static_cast<uint64_t>(T) << 40) ^
                          static_cast<uint64_t>(PC));
  double U = static_cast<double>(H >> 11) * 0x1.0p-53; // [0, 1)
  double Factor = 1.0 + Opts.OrigJitter * (2.0 * U - 1.0);
  double Scaled = static_cast<double>(Cost) * Factor;
  return Scaled <= 0.0 ? 0 : static_cast<TimeNs>(Scaled + 0.5);
}

void Engine::resolvePendingLocks(ThreadState &TS, const Event &E,
                                 uint32_t Cs) {
  TS.PendingHasLockset = E.lockset() != InvalidId;
  TS.PendingLockset = E.lockset();
  TS.PendingCs = Cs;
  if (E.lockset() == InvalidId) {
    TS.PendingLocks.assign(1, E.lock());
    return;
  }
  refreshPendingLocks(TS);
}

void Engine::refreshPendingLocks(ThreadState &TS) {
  if (TS.PendingLockset == InvalidId)
    return;
  TS.PendingLocks.clear();
  for (const LocksetEntry &Entry : Tr.Locksets[TS.PendingLockset].Entries) {
    // Dynamic locking strategy (Figure 9): a lock contributed by a
    // source section that already finished (END flag set) by this
    // thread's arrival is skipped.  Re-evaluated on every scheduler
    // round: releases on other threads become known as the simulation
    // commits grants in virtual-time order.
    if (Opts.UseDynamicLocking && Entry.SourceCs != InvalidId &&
        Result.Sections[Entry.SourceCs].Released != NeverNs &&
        Result.Sections[Entry.SourceCs].Released <= TS.Arrival)
      continue;
    TS.PendingLocks.push_back(Entry.Lock);
  }
  std::sort(TS.PendingLocks.begin(), TS.PendingLocks.end());
  TS.PendingLocks.erase(
      std::unique(TS.PendingLocks.begin(), TS.PendingLocks.end()),
      TS.PendingLocks.end());
}

void Engine::flushSuccessors(ThreadState &TS, TimeNs Now) {
  for (uint32_t Cs : TS.AwaitSuccessor)
    Result.Sections[Cs].SuccessorEnd = Now;
  TS.AwaitSuccessor.clear();
}

void Engine::advanceThread(ThreadId T) {
  ThreadState &TS = Threads[T];
  const auto &Events = Tr.Threads[T].Events;
  for (;;) {
    assert(TS.PC < Events.size() && "ran past ThreadEnd");
    const Event &E = Events[TS.PC];
    switch (E.Kind) {
    case EventKind::ThreadStart:
      ++TS.PC;
      continue;

    case EventKind::Compute:
      TS.Clock += jitteredCost(T, TS.PC, E.cost());
      ++TS.PC;
      continue;

    case EventKind::Read:
    case EventKind::Write:
      if (memSerialized()) {
        TS.Status = StatusKind::WaitMem;
        TS.Arrival = TS.Clock;
        return;
      }
      TS.Clock += Opts.Costs.MemAccess;
      if (CaptureMemTimes)
        MemTimes[T].push_back(TS.Clock);
      ++TS.MemIdx;
      ++TS.PC;
      continue;

    case EventKind::LockAcquire:
    case EventKind::RwAcquireRead:
    case EventKind::RwAcquireWrite:
    case EventKind::TryAcquire: {
      if (!isSectionOpen(E)) {
        // Failed trylock: the recorded run paid the compare-exchange
        // and took its fallback path — no blocking, no section.
        TS.Clock += Opts.Costs.TryLockFail;
        ++TS.PC;
        continue;
      }
      uint32_t Cs = TS.CsBase + TS.NextCsIndex;
      ++TS.NextCsIndex;
      CsTiming &Timing = Result.Sections[Cs];
      Timing.PrecursorStart = TS.LastSyncEnd;
      TS.Arrival = TS.Clock;
      TS.PendingShared = acquireModeOf(E) == AcquireMode::Shared;
      resolvePendingLocks(TS, E, Cs);
      if (TS.PendingLocks.empty()) {
        // Removed lock/unlock pair (null-lock or standalone node): the
        // section proceeds immediately.  It still bounds the
        // surrounding segments so Equation 1's Time2/Time3 labels stay
        // comparable between the original and ULCP-free replays.
        flushSuccessors(TS, TS.Clock);
        Timing.Arrival = TS.Clock;
        Timing.Granted = TS.Clock;
        TS.OpenCs.push_back(Cs);
        TS.LastSyncEnd = TS.Clock;
        ++TS.PC;
        continue;
      }
      Timing.Arrival = TS.Clock;
      TS.Status = StatusKind::WaitAcquire;
      flushSuccessors(TS, TS.Clock);
      return;
    }

    case EventKind::LockRelease: {
      assert(!TS.OpenCs.empty() && "release without acquire");
      uint32_t Cs = TS.OpenCs.back();
      TS.OpenCs.pop_back();
      // A lockset is released as one operation: all locks become free
      // at the same instant (the section's release time), so RULE 4
      // mutual exclusion spans the full [Granted, Released] window.
      const Holding &H = Holdings[Cs];
      const uint32_t End = H.Begin + H.Count;
      if (H.Count != 0)
        TS.Clock += Opts.Costs.LockRelease;
      if (H.Shared) {
        for (uint32_t I = H.Begin; I != End; ++I) {
          LockState &LS = Locks[HeldLocks[I]];
          assert(LS.Shared > 0 && "releasing a shared lock with no readers");
          --LS.Shared;
          LS.SharedFreeAt = std::max(LS.SharedFreeAt, TS.Clock);
        }
      } else {
        for (uint32_t I = H.Begin; I != End; ++I) {
          LockState &LS = Locks[HeldLocks[I]];
          assert(LS.Held && LS.Holder == T &&
                 "releasing a lock this thread does not hold");
          LS.Held = false;
          LS.Holder = InvalidId;
          LS.FreeAt = TS.Clock;
        }
      }
      Result.Sections[Cs].Released = TS.Clock;
      TS.LastSyncEnd = TS.Clock;
      TS.AwaitSuccessor.push_back(Cs);
      ++TS.PC;
      continue;
    }

    case EventKind::CondWait:
      // The paired mutex release / re-acquire around the sleep is
      // explicit in the trace; this event charges only the park cost.
      TS.Clock += Opts.Costs.CondWait;
      ++TS.PC;
      continue;

    case EventKind::CondSignal:
    case EventKind::CondBroadcast:
      TS.Clock += Opts.Costs.CondSignal;
      ++TS.PC;
      continue;

    case EventKind::ThreadEnd:
      flushSuccessors(TS, TS.Clock);
      TS.Status = StatusKind::Done;
      Result.ThreadFinish[T] = TS.Clock;
      --Live;
      return;
    }
  }
}

uint32_t Engine::orderHead(LockId L) const {
  const auto &Order = EnforcedOrder[L];
  size_t Cursor = Locks[L].Cursor;
  while (Cursor < Order.size() && granted(Order[Cursor]))
    ++Cursor;
  // Mutation-free scan; the cursor is advanced for real in grantAcquire.
  return Cursor < Order.size() ? Order[Cursor] : InvalidId;
}

Engine::Candidate Engine::scanAcquires(bool IgnoreOrder) const {
  Candidate Best;
  for (ThreadId T = 0; T != Threads.size(); ++T) {
    const ThreadState &TS = Threads[T];
    if (TS.Status != StatusKind::WaitAcquire)
      continue;
    TimeNs When = TS.Arrival;
    bool Feasible = true;
    for (LockId L : TS.PendingLocks) {
      // An exclusive holder blocks everyone; reader-side holders block
      // only exclusive waiters (shared grants coexist with them).
      if (Locks[L].Held ||
          (!TS.PendingShared && Locks[L].Shared != 0)) {
        Feasible = false;
        break;
      }
      When = std::max(When, Locks[L].FreeAt);
      if (!TS.PendingShared)
        When = std::max(When, Locks[L].SharedFreeAt);
      if (!IgnoreOrder && !EnforcedOrder.empty() &&
          !EnforcedOrder[L].empty()) {
        uint32_t Head = orderHead(L);
        if (Head != InvalidId && Head != TS.PendingCs) {
          Feasible = false;
          break;
        }
      }
    }
    if (!Feasible)
      continue;
    for (uint32_t P = PredBegin[TS.PendingCs];
         P != PredBegin[TS.PendingCs + 1]; ++P) {
      TimeNs PreGranted = Result.Sections[PredIds[P]].Granted;
      if (PreGranted == NeverNs) {
        Feasible = false;
        break;
      }
      When = std::max(When, PreGranted);
    }
    if (!Feasible)
      continue;
    uint64_t Tie = Opts.Schedule == ScheduleKind::OrigS
                       ? splitMix64(Opts.Seed ^ (uint64_t(T) << 32) ^
                                    TS.PendingCs)
                       : T;
    if (!Best.Valid || When < Best.Time ||
        (When == Best.Time && Tie < Best.TieBreak)) {
      Best.Valid = true;
      Best.IsMem = false;
      Best.Thread = T;
      Best.Time = When;
      Best.TieBreak = Tie;
    }
  }
  return Best;
}

Engine::Candidate Engine::scanMem() const {
  Candidate Best;
  if (!memSerialized() || MemHead == InvalidId)
    return Best;
  const ThreadState &TS = Threads[MemHead];
  if (TS.Status != StatusKind::WaitMem)
    return Best;
  Best.Valid = true;
  Best.IsMem = true;
  Best.Thread = MemHead;
  Best.Time = std::max(TS.Arrival, MemFreeAt);
  return Best;
}

void Engine::grantAcquire(ThreadId T, TimeNs When) {
  ThreadState &TS = Threads[T];
  uint32_t Cs = TS.PendingCs;
  TimeNs Waited = When - TS.Arrival;
  bool Spin = false;
  for (LockId L : TS.PendingLocks)
    Spin |= Tr.Locks[L].IsSpin;
  if (Spin) {
    Result.SpinWaitNs += Waited;
    Result.ThreadSpinWaitNs[T] += Waited;
  } else {
    Result.IdleWaitNs += Waited;
  }

  TS.Clock = When;
  // The lockset is acquired as one synchronization operation; its
  // per-lock bookkeeping is the lockset-maintenance cost below.
  if (!TS.PendingLocks.empty())
    TS.Clock += Opts.Costs.LockAcquire;
  for (LockId L : TS.PendingLocks) {
    LockState &LS = Locks[L];
    assert(!LS.Held && "granting a held lock");
    if (TS.PendingShared) {
      ++LS.Shared;
    } else {
      assert(LS.Shared == 0 && "exclusive grant with readers inside");
      LS.Held = true;
      LS.Holder = T;
    }
    Result.GrantSchedule[L].push_back(CsRef{T, Cs - TS.CsBase});
    if (EnforcedOrder.empty())
      continue;
    // Advance the enforced-order cursor past this grant (and any
    // entries granted earlier through other paths).
    const auto &Order = EnforcedOrder[L];
    while (LS.Cursor < Order.size() &&
           (Order[LS.Cursor] == Cs || granted(Order[LS.Cursor])))
      ++LS.Cursor;
  }
  if (TS.PendingHasLockset) {
    TimeNs Overhead;
    if (Opts.UseDynamicLocking) {
      size_t Entries = Tr.Locksets[TS.PendingLockset].Entries.size();
      Overhead = Opts.Costs.LocksetMaintainDls * TS.PendingLocks.size() +
                 Opts.Costs.LocksetEndCheck * Entries;
    } else {
      Overhead = Opts.Costs.LocksetMaintain * TS.PendingLocks.size();
    }
    TS.Clock += Overhead;
    Result.LocksetOverheadNs += Overhead;
    Result.LocksetLocksAcquired += TS.PendingLocks.size();
  }

  Result.Sections[Cs].Granted = When;
  Holdings[Cs] = Holding{static_cast<uint32_t>(HeldLocks.size()),
                         static_cast<uint32_t>(TS.PendingLocks.size()),
                         TS.PendingShared};
  HeldLocks.insert(HeldLocks.end(), TS.PendingLocks.begin(),
                   TS.PendingLocks.end());
  TS.OpenCs.push_back(Cs);
  TS.LastSyncEnd = TS.Clock;
  TS.Status = StatusKind::Running;
  TS.PendingCs = InvalidId;
  TS.PendingLocks.clear();
  ++TS.PC;
  advanceThread(T);
}

void Engine::grantMem(ThreadId T, TimeNs When) {
  ThreadState &TS = Threads[T];
  Result.IdleWaitNs += When - TS.Arrival;
  TS.Clock = When + Opts.Costs.MemAccess + Opts.Costs.MemSerialize;
  MemFreeAt = TS.Clock;
  ++TS.MemIdx;
  ++TS.PC;
  TS.Status = StatusKind::Running;
  pickMemHead();
  advanceThread(T);
}

void Engine::pickMemHead() {
  // Least (next pre-replay time, thread id); Replayer.h says why that
  // is the global (time, thread, index) order.
  MemHead = InvalidId;
  TimeNs Best = 0;
  for (ThreadId T = 0; T != Threads.size(); ++T) {
    const std::vector<TimeNs> &Times = MemTimes[T];
    size_t Next = Threads[T].MemIdx;
    if (Next < Times.size() && (MemHead == InvalidId || Times[Next] < Best)) {
      MemHead = T;
      Best = Times[Next];
    }
  }
}

ReplayResult Engine::run() {
  if (CaptureMemTimes)
    MemTimes.assign(Threads.size(), {});
  if (memSerialized()) {
    assert(MemTimes.size() == Threads.size() && "MEM-S needs MemTimes");
    pickMemHead();
  }
  // Only the dynamic locking strategy changes a pending lockset after
  // arrival (END flags); otherwise the refresh below is a no-op.
  const bool RefreshLocks = Opts.UseDynamicLocking && !Tr.Locksets.empty();
  Live = Threads.size();
  for (ThreadId T = 0; T != Threads.size(); ++T)
    advanceThread(T);

  while (Live != 0) {
    // Re-evaluate DLS END flags now that more releases are known.
    if (RefreshLocks)
      for (ThreadState &TS : Threads)
        if (TS.Status == StatusKind::WaitAcquire)
          refreshPendingLocks(TS);

    Candidate Acq = scanAcquires(/*IgnoreOrder=*/false);
    Candidate Mem = scanMem();
    Candidate Pick;
    if (Acq.Valid && Mem.Valid)
      Pick = Mem.Time <= Acq.Time ? Mem : Acq;
    else if (Acq.Valid)
      Pick = Acq;
    else if (Mem.Valid)
      Pick = Mem;

    if (!Pick.Valid) {
      // Every waiter is stalled.  Under SYNC-S an input-derived order
      // can be inconsistent with nested-lock arrival order; break the
      // stall by ignoring order constraints once, as Kendo's runtime
      // effectively does when it commits a lock to the next waiter.
      if (Opts.Schedule == ScheduleKind::SyncS) {
        Candidate Fallback = scanAcquires(/*IgnoreOrder=*/true);
        if (Fallback.Valid) {
          ++Result.OrderBreaks;
          grantAcquire(Fallback.Thread, Fallback.Time);
          continue;
        }
      }
      Result.Error = "replay deadlock: no grantable waiter";
      return std::move(Result);
    }

    if (Pick.IsMem)
      grantMem(Pick.Thread, Pick.Time);
    else
      grantAcquire(Pick.Thread, Pick.Time);
  }

  Result.TotalTime = 0;
  for (TimeNs Finish : Result.ThreadFinish)
    Result.TotalTime = std::max(Result.TotalTime, Finish);
  // Sessions cache results, so drop the push_back slack of the grant
  // lists before handing them out (it showed in mysql-pipeline's peak
  // RSS); the rest of the result is sized exactly up front.
  for (std::vector<CsRef> &Grants : Result.GrantSchedule)
    Grants.shrink_to_fit();
  return std::move(Result);
}

/// computeSoloArrivals(), also storing each section's lock into
/// \p LockOf when it is non-null (sized to the section count).
static std::vector<TimeNs> soloArrivals(const Trace &Tr,
                                        const CostModel &Costs,
                                        LockId *LockOf) {
  std::vector<TimeNs> Solo(Tr.numCriticalSections(), 0);
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    TimeNs Clock = 0;
    uint32_t Index = 0;
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
      case EventKind::TryAcquire:
        if (isSectionOpen(E)) {
          uint32_t Cs = Tr.firstGlobalCsId(T) + Index++;
          Solo[Cs] = Clock;
          if (LockOf)
            LockOf[Cs] = E.lock();
          Clock += Costs.LockAcquire;
        } else {
          Clock += Costs.TryLockFail;
        }
        break;
      case EventKind::LockRelease:
        Clock += Costs.LockRelease;
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
  }
  return Solo;
}

std::vector<TimeNs> perfplay::computeSoloArrivals(const Trace &Tr,
                                                  const CostModel &Costs) {
  return soloArrivals(Tr, Costs, nullptr);
}

std::vector<std::vector<uint32_t>>
perfplay::computeSyncOrder(const Trace &Tr, const CostModel &Costs) {
  std::vector<LockId> LockOf(Tr.numCriticalSections());
  std::vector<TimeNs> Solo = soloArrivals(Tr, Costs, LockOf.data());
  std::vector<std::vector<uint32_t>> Order(Tr.Locks.size());
  {
    std::vector<uint32_t> PerLock(Tr.Locks.size(), 0);
    for (LockId L : LockOf)
      ++PerLock[L];
    for (LockId L = 0; L != Order.size(); ++L)
      Order[L].reserve(PerLock[L]);
  }
  // Within a thread, ids ascend and solo arrivals never decrease, so
  // each thread's sections are already in (solo arrival, id) order:
  // merging the threads through a heap of their next sections lists
  // every section in that order, and each lock's list comes out
  // sorted with no per-lock sort.
  struct Head {
    TimeNs Solo;
    uint32_t Cs;
    uint32_t End;
  };
  // std heaps keep the greatest on top, so "after" is the order.
  auto After = [](const Head &A, const Head &B) {
    return A.Solo != B.Solo ? A.Solo > B.Solo : A.Cs > B.Cs;
  };
  std::vector<Head> Heap;
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    uint32_t Begin = Tr.firstGlobalCsId(T);
    uint32_t End = Tr.firstGlobalCsId(T + 1);
    if (Begin != End)
      Heap.push_back(Head{Solo[Begin], Begin, End});
  }
  std::make_heap(Heap.begin(), Heap.end(), After);
  while (!Heap.empty()) {
    std::pop_heap(Heap.begin(), Heap.end(), After);
    Head &Next = Heap.back();
    Order[LockOf[Next.Cs]].push_back(Next.Cs);
    if (++Next.Cs == Next.End) {
      Heap.pop_back();
      continue;
    }
    Next.Solo = Solo[Next.Cs];
    std::push_heap(Heap.begin(), Heap.end(), After);
  }
  return Order;
}

ReplayResult perfplay::replayTrace(const Trace &Tr,
                                   const ReplayOptions &Opts) {
  if (Opts.Schedule != ScheduleKind::MemS) {
    Engine E(Tr, Opts);
    return E.run();
  }
  // MEM-S: time every shared access in a deterministic ELSC
  // pre-replay, then enforce the order those times imply.  The
  // pre-replay's engine is gone before the enforcing one is built.
  std::vector<std::vector<TimeNs>> MemTimes;
  {
    ReplayOptions PreOpts = Opts;
    PreOpts.Schedule = ScheduleKind::ElscS;
    Engine Pre(Tr, PreOpts);
    Pre.CaptureMemTimes = true;
    ReplayResult PreResult = Pre.run();
    if (!PreResult.ok())
      return PreResult;
    MemTimes = std::move(Pre.MemTimes);
  }
  Engine E(Tr, Opts);
  E.MemTimes = std::move(MemTimes);
  return E.run();
}

ReplayResult perfplay::recordGrantSchedule(Trace &Tr, uint64_t Seed,
                                           const CostModel &Costs) {
  ReplayOptions Opts;
  Opts.Schedule = ScheduleKind::OrigS;
  Opts.Seed = Seed;
  Opts.Costs = Costs;
  ReplayResult Result = replayTrace(Tr, Opts);
  if (Result.ok())
    Tr.LockSchedule = Result.GrantSchedule;
  return Result;
}
