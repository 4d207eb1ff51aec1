//===- runtime/Recorder.cpp - Live execution recording ---------------------===//

#include "runtime/Recorder.h"

#include <cassert>

using namespace perfplay;

Recorder::Recorder() = default;

LockId Recorder::registerLock(std::string Name, bool IsSpin) {
  MutexLock Guard(Registry);
  assert(!Finished && "recorder already finished");
  LockInfo Info;
  Info.Name = Result.Names.intern(Name);
  Info.IsSpin = IsSpin;
  Result.Locks.push_back(Info);
  return static_cast<LockId>(Result.Locks.size() - 1);
}

LockId Recorder::registerCondition(std::string Name) {
  return registerLock(std::move(Name));
}

CodeSiteId Recorder::registerSite(std::string File, std::string Function,
                                  uint32_t BeginLine, uint32_t EndLine) {
  MutexLock Guard(Registry);
  assert(!Finished && "recorder already finished");
  // Interning first makes the dedup scan a pure integer compare: equal
  // names share a StringId, so no characters are touched per candidate.
  StringId FileId = Result.Names.intern(File);
  StringId FunctionId = Result.Names.intern(Function);
  for (size_t I = 0; I != Result.Sites.size(); ++I) {
    const CodeSite &S = Result.Sites[I];
    if (S.File == FileId && S.Function == FunctionId &&
        S.BeginLine == BeginLine && S.EndLine == EndLine)
      return static_cast<CodeSiteId>(I);
  }
  CodeSite Site;
  Site.File = FileId;
  Site.Function = FunctionId;
  Site.BeginLine = BeginLine;
  Site.EndLine = EndLine;
  Result.Sites.push_back(Site);
  return static_cast<CodeSiteId>(Result.Sites.size() - 1);
}

ThreadId Recorder::registerThread() {
  MutexLock Guard(Registry);
  assert(!Finished && "recorder already finished");
  auto *Log = new PerThread();
  Log->Events.push_back(Event::threadStart());
  Log->LastStamp = Clock::now();
  ThreadLogs.push_back(Log);
  Result.Threads.emplace_back();
  return static_cast<ThreadId>(ThreadLogs.size() - 1);
}

Recorder::PerThread &Recorder::threadLog(ThreadId T) {
  MutexLock Guard(Registry);
  assert(T < ThreadLogs.size() && "unregistered thread");
  return *ThreadLogs[T];
}

void Recorder::flushCompute(PerThread &Log, Clock::time_point Now) {
  auto Elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Now - Log.LastStamp)
                     .count();
  if (Elapsed > 0)
    Log.Events.push_back(Event::compute(static_cast<TimeNs>(Elapsed)));
  Log.LastStamp = Now;
}

void Recorder::onAcquireStart(ThreadId T) {
  PerThread &Log = threadLog(T);
  auto Now = Clock::now();
  flushCompute(Log, Now);
  Log.Waiting = true;
  Log.WaitStart = Now;
}

void Recorder::finishAcquire(ThreadId T, LockId Lock, const Event &E) {
  PerThread &Log = threadLog(T);
  auto Now = Clock::now();
  if (Log.Waiting) {
    // Selective recording: the wait is contention, not computation;
    // drop it so the replayer re-derives it from the schedule.
    Log.LastStamp = Now;
    Log.Waiting = false;
  } else {
    flushCompute(Log, Now);
  }
  Log.Events.push_back(E);
  {
    // We already hold the recorded lock here, so this registry lock
    // cannot invert the observed grant order for a given lock.
    MutexLock Guard(Registry);
    GrantLog.push_back({Lock, T});
  }
}

void Recorder::onAcquired(ThreadId T, LockId Lock, CodeSiteId Site) {
  finishAcquire(T, Lock, Event::lockAcquire(Lock, Site));
}

void Recorder::onRwAcquiredRead(ThreadId T, LockId Lock, CodeSiteId Site) {
  finishAcquire(T, Lock, Event::rwAcquireRead(Lock, Site));
}

void Recorder::onRwAcquiredWrite(ThreadId T, LockId Lock,
                                 CodeSiteId Site) {
  finishAcquire(T, Lock, Event::rwAcquireWrite(Lock, Site));
}

void Recorder::onTryAcquire(ThreadId T, LockId Lock, CodeSiteId Site,
                            bool Succeeded, AcquireMode Mode) {
  if (Succeeded) {
    finishAcquire(T, Lock, Event::tryAcquire(Lock, Site, true, Mode));
    return;
  }
  // A failed try never waited and opens nothing: just the witness.
  PerThread &Log = threadLog(T);
  flushCompute(Log, Clock::now());
  Log.Events.push_back(Event::tryAcquire(Lock, Site, false, Mode));
}

void Recorder::onCondWait(ThreadId T, LockId Cond, CodeSiteId Site) {
  PerThread &Log = threadLog(T);
  flushCompute(Log, Clock::now());
  Log.Events.push_back(Event::condWait(Cond, Site));
}

void Recorder::onCondSignal(ThreadId T, LockId Cond) {
  PerThread &Log = threadLog(T);
  flushCompute(Log, Clock::now());
  Log.Events.push_back(Event::condSignal(Cond));
}

void Recorder::onCondBroadcast(ThreadId T, LockId Cond) {
  PerThread &Log = threadLog(T);
  flushCompute(Log, Clock::now());
  Log.Events.push_back(Event::condBroadcast(Cond));
}

void Recorder::onRelease(ThreadId T, LockId Lock) {
  PerThread &Log = threadLog(T);
  auto Now = Clock::now();
  flushCompute(Log, Now);
  Log.Events.push_back(Event::lockRelease(Lock));
}

void Recorder::onRead(ThreadId T, AddrId Addr, uint64_t Value) {
  PerThread &Log = threadLog(T);
  auto Now = Clock::now();
  flushCompute(Log, Now);
  Log.Events.push_back(Event::read(Addr, Value));
}

void Recorder::onWrite(ThreadId T, AddrId Addr, uint64_t Value,
                       WriteOpKind Op) {
  PerThread &Log = threadLog(T);
  auto Now = Clock::now();
  flushCompute(Log, Now);
  Log.Events.push_back(Event::write(Addr, Value, Op));
}

Trace Recorder::finish() {
  MutexLock Guard(Registry);
  assert(!Finished && "recorder already finished");
  Finished = true;

  for (ThreadId T = 0; T != ThreadLogs.size(); ++T) {
    ThreadLogs[T]->Events.push_back(Event::threadEnd());
    Result.Threads[T].Events = std::move(ThreadLogs[T]->Events);
    delete ThreadLogs[T];
  }
  ThreadLogs.clear();

  // Rebuild the per-lock grant schedule with per-thread CS indices.
  std::vector<uint32_t> NextCsIndex(Result.Threads.size(), 0);
  // GrantLog entries are in acquisition order per lock; the I-th grant
  // of thread T corresponds to T's I-th critical section.
  Result.LockSchedule.assign(Result.Locks.size(), {});
  for (const auto &[Lock, T] : GrantLog)
    Result.LockSchedule[Lock].push_back(CsRef{T, NextCsIndex[T]++});

  Result.buildCsIndex();
  return std::move(Result);
}
