//===- detect/CriticalSection.cpp - Critical-section extraction -----------===//

#include "detect/CriticalSection.h"

#include <algorithm>
#include <cassert>

using namespace perfplay;

template <typename T> static void sortUnique(std::vector<T> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

void CriticalSection::finalizeSets() {
  sortUnique(Reads);
  sortUnique(Writes);
  sortUnique(CondWaits);
  sortUnique(CondSignals);
}

CsIndex CsIndex::build(const Trace &Tr) {
  CsIndex Index;
  Index.TryFailPerLock.assign(Tr.Locks.size(), 0);

  // First pass: create one record per section-opening event, in
  // global-id order, and fill read/write sets for every enclosing open
  // section.
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    const auto &Events = Tr.Threads[T].Events;
    std::vector<size_t> OpenStack; // Indices into Index.Sections.
    uint32_t NextIndex = 0;
    // Records for this thread are appended in acquire order, which is
    // exactly the global-id order within the thread.
    for (size_t I = 0; I != Events.size(); ++I) {
      const Event &E = Events[I];
      switch (E.Kind) {
      case EventKind::LockAcquire:
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
      case EventKind::TryAcquire: {
        if (!isSectionOpen(E)) {
          // A failed trylock opens nothing but is a witnessed
          // contention edge on the lock.
          ++Index.TryFailPerLock[E.Lock];
          break;
        }
        CriticalSection Cs;
        Cs.Ref = CsRef{T, NextIndex++};
        Cs.Lock = E.Lock;
        Cs.Site = E.Site;
        Cs.Mode = acquireModeOf(E);
        Cs.AcquireIdx = I;
        Cs.Depth = static_cast<unsigned>(OpenStack.size());
        Index.Sections.push_back(std::move(Cs));
        OpenStack.push_back(Index.Sections.size() - 1);
        break;
      }
      case EventKind::LockRelease: {
        assert(!OpenStack.empty() && "release without acquire; validate "
                                     "the trace first");
        CriticalSection &Cs = Index.Sections[OpenStack.back()];
        assert(Cs.Lock == E.Lock && "mismatched release");
        Cs.ReleaseIdx = I;
        OpenStack.pop_back();
        break;
      }
      case EventKind::Read:
        for (size_t Open : OpenStack)
          Index.Sections[Open].Reads.push_back(E.Addr);
        break;
      case EventKind::Write:
        for (size_t Open : OpenStack)
          Index.Sections[Open].Writes.push_back(E.Addr);
        break;
      case EventKind::Compute:
        for (size_t Open : OpenStack)
          Index.Sections[Open].InnerCost += E.Cost;
        break;
      case EventKind::CondWait:
        for (size_t Open : OpenStack)
          Index.Sections[Open].CondWaits.push_back(E.Lock);
        break;
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        for (size_t Open : OpenStack)
          Index.Sections[Open].CondSignals.push_back(E.Lock);
        break;
      case EventKind::ThreadStart:
      case EventKind::ThreadEnd:
        break;
      }
    }
    assert(OpenStack.empty() && "unbalanced critical sections");
  }

  // Sections were appended thread-major in acquire order, which is the
  // global-id enumeration; record the ids and canonicalize the sets.
  for (size_t I = 0; I != Index.Sections.size(); ++I) {
    CriticalSection &Cs = Index.Sections[I];
    Cs.GlobalId = Tr.globalCsId(Cs.Ref);
    assert(Cs.GlobalId == I && "global-id enumeration mismatch");
    Cs.finalizeSets();
  }

  // Per-lock pairing order.
  Index.PerLock.assign(Tr.Locks.size(), {});
  if (!Tr.LockSchedule.empty()) {
    for (LockId L = 0; L != Tr.LockSchedule.size(); ++L)
      for (const CsRef &Ref : Tr.LockSchedule[L])
        Index.PerLock[L].push_back(Tr.globalCsId(Ref));
  } else {
    for (const CriticalSection &Cs : Index.Sections)
      Index.PerLock[Cs.Lock].push_back(Cs.GlobalId);
  }
  return Index;
}
