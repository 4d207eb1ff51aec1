//===- trace/Trace.cpp - Recorded execution trace --------------------------===//

#include "trace/Trace.h"

#include "support/ThreadPool.h"

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

/// The per-thread structural half of validate(): framing, LIFO lock
/// nesting, and table references of one thread's stream.  Independent
/// of every other thread, which is what lets validate(ThreadPool*)
/// fan the walks out.  \p CsCount receives the thread's critical-
/// section count (valid only when the walk passed).
std::string Trace::validateThread(size_t T, uint32_t &OutCs) const {
  auto err = [](const std::string &Msg) { return Msg; };
  OutCs = 0;
  const auto &Events = Threads[T].Events;
  const std::string Where = "thread " + std::to_string(T) + ": ";
  if (Events.empty())
    return err(Where + "empty event stream");
  if (Events.front().Kind != EventKind::ThreadStart)
    return err(Where + "does not begin with ThreadStart");
  if (Events.back().Kind != EventKind::ThreadEnd)
    return err(Where + "does not end with ThreadEnd");

  std::vector<LockId> HeldStack;
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    const std::string At = Where + "event " + std::to_string(I) + ": ";
    switch (E.Kind) {
    case EventKind::ThreadStart:
      if (I != 0)
        return err(At + "ThreadStart not first");
      break;
    case EventKind::ThreadEnd:
      if (I + 1 != Events.size())
        return err(At + "ThreadEnd not last");
      if (!HeldStack.empty())
        return err(At + "thread ends holding a lock");
      break;
    case EventKind::LockAcquire:
    case EventKind::RwAcquireRead:
    case EventKind::RwAcquireWrite:
    case EventKind::TryAcquire:
      if (E.Lock >= Locks.size())
        return err(At + "acquire of unknown lock");
      if (E.Site != InvalidId && E.Site >= Sites.size())
        return err(At + "unknown code site");
      if (E.Lockset != InvalidId && E.Lockset >= Locksets.size())
        return err(At + "unknown lockset");
      // A failed trylock opens nothing; every other acquire (and a
      // successful try) opens a critical section.
      if (isSectionOpen(E)) {
        HeldStack.push_back(E.Lock);
        ++OutCs;
      }
      break;
    case EventKind::LockRelease:
      if (E.Lock >= Locks.size())
        return err(At + "release of unknown lock");
      if (HeldStack.empty() || HeldStack.back() != E.Lock)
        return err(At + "release does not match innermost held lock");
      HeldStack.pop_back();
      break;
    case EventKind::CondWait:
      if (E.Lock >= Locks.size())
        return err(At + "wait on unknown condition variable");
      if (E.Site != InvalidId && E.Site >= Sites.size())
        return err(At + "unknown code site");
      break;
    case EventKind::CondSignal:
    case EventKind::CondBroadcast:
      if (E.Lock >= Locks.size())
        return err(At + "signal of unknown condition variable");
      break;
    case EventKind::Read:
    case EventKind::Write:
    case EventKind::Compute:
      break;
    }
  }
  return std::string();
}

std::string Trace::validate() const { return validate(nullptr); }

std::string Trace::validate(ThreadPool *Pool) const {
  auto err = [](const std::string &Msg) { return Msg; };

  // Pooled-name integrity: a name handle is either the "unnamed"
  // sentinel or resolves inside this trace's pool.
  for (const LockInfo &L : Locks)
    if (L.Name != InvalidStringId && L.Name >= Names.size())
      return err("lock name not in string pool");
  for (const CodeSite &S : Sites) {
    if (S.File != InvalidStringId && S.File >= Names.size())
      return err("code site file not in string pool");
    if (S.Function != InvalidStringId && S.Function >= Names.size())
      return err("code site function not in string pool");
  }

  std::vector<uint32_t> CsPerThread(Threads.size(), 0);
  if (Pool && Pool->size() > 1 && Threads.size() > 1) {
    // Each walk touches only its own thread's slots, so no locking is
    // needed; the serial scan below picks the lowest-numbered failing
    // thread, matching the serial walk's first-error semantics.
    std::vector<std::string> ThreadErrs(Threads.size());
    Pool->parallelFor(Threads.size(), [&](size_t T) {
      ThreadErrs[T] = validateThread(T, CsPerThread[T]);
    });
    for (const std::string &E : ThreadErrs)
      if (!E.empty())
        return E;
  } else {
    for (size_t T = 0; T != Threads.size(); ++T) {
      std::string E = validateThread(T, CsPerThread[T]);
      if (!E.empty())
        return E;
    }
  }
  size_t TotalCs = 0;
  for (uint32_t N : CsPerThread)
    TotalCs += N;

  for (const auto &LS : Locksets)
    for (const auto &Entry : LS.Entries) {
      if (Entry.Lock >= Locks.size())
        return err("lockset references unknown lock");
      if (Entry.SourceCs != InvalidId && Entry.SourceCs >= TotalCs)
        return err("lockset references unknown source critical section");
    }

  for (const auto &C : Constraints) {
    if (C.Before >= TotalCs || C.After >= TotalCs)
      return err("constraint references unknown critical section");
    if (C.Before == C.After)
      return err("constraint orders a critical section against itself");
  }

  if (!LockSchedule.empty() && LockSchedule.size() != Locks.size())
    return err("lock schedule size does not match lock table");
  for (size_t L = 0; L != LockSchedule.size(); ++L)
    for (const CsRef &Ref : LockSchedule[L]) {
      if (Ref.Thread >= Threads.size())
        return err("lock schedule references unknown thread");
      if (Ref.Index >= CsPerThread[Ref.Thread])
        return err("lock schedule references unknown critical section");
    }

  return std::string();
}
