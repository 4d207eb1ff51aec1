//===- trace/TraceBuilder.cpp - Convenient trace construction -------------===//

#include "trace/TraceBuilder.h"

#include <cassert>

using namespace perfplay;

LockId TraceBuilder::addLock(std::string Name, bool IsSpin) {
  assert(!Finished && "builder already finished");
  LockInfo Info;
  Info.Name = Result.Names.intern(Name);
  Info.IsSpin = IsSpin;
  Result.Locks.push_back(Info);
  return static_cast<LockId>(Result.Locks.size() - 1);
}

CodeSiteId TraceBuilder::addSite(std::string File, std::string Function,
                                 uint32_t BeginLine, uint32_t EndLine) {
  assert(!Finished && "builder already finished");
  assert(BeginLine <= EndLine && "inverted code region");
  CodeSite Site;
  Site.File = Result.Names.intern(File);
  Site.Function = Result.Names.intern(Function);
  Site.BeginLine = BeginLine;
  Site.EndLine = EndLine;
  Result.Sites.push_back(Site);
  return static_cast<CodeSiteId>(Result.Sites.size() - 1);
}

ThreadId TraceBuilder::addThread() {
  assert(!Finished && "builder already finished");
  Result.Threads.emplace_back();
  Result.Threads.back().Events.push_back(Event::threadStart());
  HeldStacks.emplace_back();
  return static_cast<ThreadId>(Result.Threads.size() - 1);
}

void TraceBuilder::beginCs(ThreadId T, LockId Lock, CodeSiteId Site) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(Lock < Result.Locks.size() && "unknown lock");
  assert((Site == InvalidId || Site < Result.Sites.size()) &&
         "unknown code site");
  Result.Threads[T].Events.push_back(Event::lockAcquire(Lock, Site));
  HeldStacks[T].push_back(Lock);
}

void TraceBuilder::endCs(ThreadId T) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(!HeldStacks[T].empty() && "no open critical section");
  LockId Lock = HeldStacks[T].back();
  HeldStacks[T].pop_back();
  Result.Threads[T].Events.push_back(Event::lockRelease(Lock));
}

void TraceBuilder::beginCsShared(ThreadId T, LockId Lock, CodeSiteId Site) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(Lock < Result.Locks.size() && "unknown lock");
  assert((Site == InvalidId || Site < Result.Sites.size()) &&
         "unknown code site");
  Result.Threads[T].Events.push_back(Event::rwAcquireRead(Lock, Site));
  HeldStacks[T].push_back(Lock);
}

void TraceBuilder::beginCsWrite(ThreadId T, LockId Lock, CodeSiteId Site) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(Lock < Result.Locks.size() && "unknown lock");
  assert((Site == InvalidId || Site < Result.Sites.size()) &&
         "unknown code site");
  Result.Threads[T].Events.push_back(Event::rwAcquireWrite(Lock, Site));
  HeldStacks[T].push_back(Lock);
}

bool TraceBuilder::tryCs(ThreadId T, LockId Lock, CodeSiteId Site,
                         bool Succeeded, AcquireMode Mode) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(Lock < Result.Locks.size() && "unknown lock");
  assert((Site == InvalidId || Site < Result.Sites.size()) &&
         "unknown code site");
  Result.Threads[T].Events.push_back(
      Event::tryAcquire(Lock, Site, Succeeded, Mode));
  if (Succeeded)
    HeldStacks[T].push_back(Lock);
  return Succeeded;
}

void TraceBuilder::condWait(ThreadId T, LockId Cond, CodeSiteId Site) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(Cond < Result.Locks.size() && "unknown condition variable");
  assert((Site == InvalidId || Site < Result.Sites.size()) &&
         "unknown code site");
  Result.Threads[T].Events.push_back(Event::condWait(Cond, Site));
}

void TraceBuilder::condSignal(ThreadId T, LockId Cond) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(Cond < Result.Locks.size() && "unknown condition variable");
  Result.Threads[T].Events.push_back(Event::condSignal(Cond));
}

void TraceBuilder::condBroadcast(ThreadId T, LockId Cond) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert(Cond < Result.Locks.size() && "unknown condition variable");
  Result.Threads[T].Events.push_back(Event::condBroadcast(Cond));
}

void TraceBuilder::read(ThreadId T, AddrId Addr, uint64_t Value,
                        bool AllowUnlocked) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert((AllowUnlocked || !HeldStacks[T].empty()) &&
         "shared read outside any critical section");
  (void)AllowUnlocked;
  Result.Threads[T].Events.push_back(Event::read(Addr, Value));
}

void TraceBuilder::write(ThreadId T, AddrId Addr, uint64_t Value,
                         WriteOpKind Op, bool AllowUnlocked) {
  assert(T < Result.Threads.size() && "unknown thread");
  assert((AllowUnlocked || !HeldStacks[T].empty()) &&
         "shared write outside any critical section");
  (void)AllowUnlocked;
  Result.Threads[T].Events.push_back(Event::write(Addr, Value, Op));
}

void TraceBuilder::compute(ThreadId T, TimeNs Cost) {
  assert(T < Result.Threads.size() && "unknown thread");
  Result.Threads[T].Events.push_back(Event::compute(Cost));
}

Trace TraceBuilder::finish() {
  assert(!Finished && "builder already finished");
  Finished = true;
  for (size_t T = 0; T != Result.Threads.size(); ++T) {
    assert(HeldStacks[T].empty() && "thread finishes holding a lock");
    Result.Threads[T].Events.push_back(Event::threadEnd());
  }
  Result.buildCsIndex();
  return std::move(Result);
}
