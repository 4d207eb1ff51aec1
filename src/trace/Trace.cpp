//===- trace/Trace.cpp - Recorded execution trace --------------------------===//

#include "trace/Trace.h"

#include <cassert>
#include <string>
#include <vector>

using namespace perfplay;

size_t Trace::numEvents() const {
  size_t N = 0;
  for (const auto &T : Threads)
    N += T.Events.size();
  return N;
}

size_t Trace::numCriticalSections() const {
  if (!CsPrefix.empty()) {
    assert(CsPrefix.back() == countCriticalSections() &&
           "stale CS index: Threads changed after buildCsIndex()");
    return CsPrefix.back();
  }
  return countCriticalSections();
}

size_t Trace::countCriticalSections() const {
  size_t N = 0;
  for (size_t T = 0; T != Threads.size(); ++T)
    N += numCriticalSections(static_cast<ThreadId>(T));
  return N;
}

uint32_t Trace::numCriticalSections(ThreadId T) const {
  assert(T < Threads.size() && "thread out of range");
  uint32_t N = 0;
  for (const auto &E : Threads[T].Events)
    if (isSectionOpen(E))
      ++N;
  return N;
}

void Trace::buildCsIndex() {
  CsCount.assign(Threads.size(), 0);
  for (size_t T = 0; T != Threads.size(); ++T)
    CsCount[T] = numCriticalSections(static_cast<ThreadId>(T));
  CsPrefix.assign(Threads.size() + 1, 0);
  for (size_t T = 0; T != Threads.size(); ++T)
    CsPrefix[T + 1] = CsPrefix[T] + CsCount[T];
}

void Trace::installCsIndex(std::vector<uint32_t> CountPerThread) {
  assert(CountPerThread.size() == Threads.size() &&
         "one count per thread required");
  CsCount = std::move(CountPerThread);
  CsPrefix.assign(Threads.size() + 1, 0);
  for (size_t T = 0; T != Threads.size(); ++T)
    CsPrefix[T + 1] = CsPrefix[T] + CsCount[T];
}

uint32_t Trace::globalCsId(CsRef Ref) const {
  assert(!CsPrefix.empty() && "buildCsIndex() not called");
  assert(Ref.Thread < Threads.size() && "thread out of range");
  assert(Ref.Index < CsCount[Ref.Thread] && "CS index out of range");
  return CsPrefix[Ref.Thread] + Ref.Index;
}

CsRef Trace::csRefOf(uint32_t GlobalId) const {
  assert(!CsPrefix.empty() && "buildCsIndex() not called");
  assert(GlobalId < CsPrefix.back() && "global CS id out of range");
  // Threads are few; a linear scan is fine and avoids binary-search
  // subtleties with empty threads.
  for (size_t T = 0; T + 1 != CsPrefix.size(); ++T)
    if (GlobalId < CsPrefix[T + 1])
      return CsRef{static_cast<ThreadId>(T), GlobalId - CsPrefix[T]};
  assert(false && "unreachable: id covered by assert above");
  return CsRef();
}

std::string Trace::validate() const {
  // Pooled-name integrity: a name handle is either the "unnamed"
  // sentinel or resolves inside this trace's pool.
  for (const LockInfo &L : Locks)
    if (L.Name != InvalidStringId && L.Name >= Names.size())
      return "lock name not in string pool";
  for (const CodeSite &S : Sites) {
    if (S.File != InvalidStringId && S.File >= Names.size())
      return "code site file not in string pool";
    if (S.Function != InvalidStringId && S.Function >= Names.size())
      return "code site function not in string pool";
  }

  // Per thread: framing, LIFO lock nesting, and table references.  The
  // diagnostic prefix is built only on a failure path, never per event.
  std::vector<uint32_t> CsPerThread(Threads.size(), 0);
  std::vector<LockId> HeldStack;
  for (size_t T = 0; T != Threads.size(); ++T) {
    const auto &Events = Threads[T].Events;
    auto where = [T] { return "thread " + std::to_string(T) + ": "; };
    if (Events.empty())
      return where() + "empty event stream";
    if (Events.front().Kind != EventKind::ThreadStart)
      return where() + "does not begin with ThreadStart";
    if (Events.back().Kind != EventKind::ThreadEnd)
      return where() + "does not end with ThreadEnd";

    HeldStack.clear();
    for (size_t I = 0; I != Events.size(); ++I) {
      const Event &E = Events[I];
      auto at = [&](const char *Msg) {
        return where() + "event " + std::to_string(I) + ": " + Msg;
      };
      switch (E.Kind) {
      case EventKind::ThreadStart:
        if (I != 0)
          return at("ThreadStart not first");
        break;
      case EventKind::ThreadEnd:
        if (I + 1 != Events.size())
          return at("ThreadEnd not last");
        if (!HeldStack.empty())
          return at("thread ends holding a lock");
        break;
      case EventKind::LockAcquire:
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
      case EventKind::TryAcquire:
        if (E.lock() >= Locks.size())
          return at("acquire of unknown lock");
        if (E.site() != InvalidId && E.site() >= Sites.size())
          return at("unknown code site");
        if (E.lockset() != InvalidId && E.lockset() >= Locksets.size())
          return at("unknown lockset");
        // A failed trylock opens nothing; every other acquire (and a
        // successful try) opens a critical section.
        if (isSectionOpen(E)) {
          HeldStack.push_back(E.lock());
          ++CsPerThread[T];
        }
        break;
      case EventKind::LockRelease:
        if (E.lock() >= Locks.size())
          return at("release of unknown lock");
        if (HeldStack.empty() || HeldStack.back() != E.lock())
          return at("release does not match innermost held lock");
        HeldStack.pop_back();
        break;
      case EventKind::CondWait:
        if (E.lock() >= Locks.size())
          return at("wait on unknown condition variable");
        if (E.site() != InvalidId && E.site() >= Sites.size())
          return at("unknown code site");
        break;
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        if (E.lock() >= Locks.size())
          return at("signal of unknown condition variable");
        break;
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::Compute:
        break;
      }
    }
  }
  size_t TotalCs = 0;
  for (uint32_t N : CsPerThread)
    TotalCs += N;

  for (const LocksetEntry &Entry : Locksets.entries()) {
    if (Entry.Lock >= Locks.size())
      return "lockset references unknown lock";
    if (Entry.SourceCs != InvalidId && Entry.SourceCs >= TotalCs)
      return "lockset references unknown source critical section";
  }

  for (const auto &C : Constraints) {
    if (C.Before >= TotalCs || C.After >= TotalCs)
      return "constraint references unknown critical section";
    if (C.Before == C.After)
      return "constraint orders a critical section against itself";
  }

  if (!LockSchedule.empty() && LockSchedule.size() != Locks.size())
    return "lock schedule size does not match lock table";
  for (size_t L = 0; L != LockSchedule.size(); ++L)
    for (const CsRef &Ref : LockSchedule[L]) {
      if (Ref.Thread >= Threads.size())
        return "lock schedule references unknown thread";
      if (Ref.Index >= CsPerThread[Ref.Thread])
        return "lock schedule references unknown critical section";
    }

  return std::string();
}
