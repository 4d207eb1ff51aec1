//===- detect/CriticalSection.cpp - Critical-section extraction -----------===//

#include "detect/CriticalSection.h"

#include "support/FlatMap.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace perfplay;

void SectionBody::add(const Event &E) {
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write:
    Accesses.push_back(
        Access{E.addr(), E.value(), E.Op, E.Kind == EventKind::Write});
    break;
  case EventKind::CondWait:
    CondWaits.push_back(E.lock());
    break;
  case EventKind::CondSignal:
  case EventKind::CondBroadcast:
    CondSignals.push_back(E.lock());
    break;
  default:
    break;
  }
}

/// Sorts and de-duplicates \p Pool from \p Begin on; returns that tail
/// as a run.
template <typename T>
static PoolRun sortUniqueTail(std::vector<T> &Pool, size_t Begin) {
  auto First = Pool.begin() + static_cast<ptrdiff_t>(Begin);
  std::sort(First, Pool.end());
  Pool.erase(std::unique(First, Pool.end()), Pool.end());
  assert(Pool.size() <= UINT32_MAX && "section pool overflow");
  return PoolRun{static_cast<uint32_t>(Begin),
                 static_cast<uint32_t>(Pool.size() - Begin)};
}

uint32_t SectionTable::add(const CriticalSection &Cs) {
  Sections.push_back(Cs);
  return static_cast<uint32_t>(Sections.size() - 1);
}

void SectionTable::pack(uint32_t Pos, const SectionBody &Body) {
  CriticalSection &Cs = Sections[Pos];

  size_t Begin = Addrs.size();
  for (const SectionBody::Access &A : Body.Accesses)
    if (!A.IsWrite)
      Addrs.push_back(A.Addr);
  Cs.Reads = sortUniqueTail(Addrs, Begin);
  Begin = Addrs.size();
  for (const SectionBody::Access &A : Body.Accesses)
    if (A.IsWrite)
      Addrs.push_back(A.Addr);
  Cs.Writes = sortUniqueTail(Addrs, Begin);

  Begin = Conds.size();
  Conds.insert(Conds.end(), Body.CondWaits.begin(), Body.CondWaits.end());
  Cs.CondWaits = sortUniqueTail(Conds, Begin);
  Begin = Conds.size();
  Conds.insert(Conds.end(), Body.CondSignals.begin(),
               Body.CondSignals.end());
  Cs.CondSignals = sortUniqueTail(Conds, Begin);

  Begin = SlotAddrs.size();
  Span<AddrId> R = reads(Cs), W = writes(Cs);
  std::set_union(R.begin(), R.end(), W.begin(), W.end(),
                 std::back_inserter(SlotAddrs));
  SlotInit.resize(SlotAddrs.size(), 0);
  Cs.Slots = PoolRun{static_cast<uint32_t>(Begin),
                     static_cast<uint32_t>(SlotAddrs.size() - Begin)};

  const auto SlotsBegin = SlotAddrs.begin() + static_cast<ptrdiff_t>(Begin);
  Cs.Program = PoolRun{static_cast<uint32_t>(Ops.size()),
                       static_cast<uint32_t>(Body.Accesses.size())};
  for (const SectionBody::Access &A : Body.Accesses) {
    auto It = std::lower_bound(SlotsBegin, SlotAddrs.end(), A.Addr);
    assert(It != SlotAddrs.end() && *It == A.Addr && "access without slot");
    Ops.push_back(MemOp{A.Value, static_cast<uint32_t>(It - SlotsBegin),
                        A.IsWrite, A.Op});
  }
  assert(Ops.size() <= UINT32_MAX && "section pool overflow");
}

CsIndex CsIndex::build(const Trace &Tr) {
  CsIndex Index;
  Index.TryFailPerLock.assign(Tr.Locks.size(), 0);
  Index.Sections.reserve(Tr.numCriticalSections());

  // Initial value of every address: the recorded value of its first
  // access in thread-major order when that access is a read, else 0.
  FlatMap<AddrId, uint64_t> Initial;
  // Open sections' positions, innermost last, and their bodies by
  // nesting depth (reused across sections, so their buffers keep
  // their capacity).
  std::vector<uint32_t> OpenStack;
  std::vector<SectionBody> Bodies;

  // Records are appended thread-major in acquire order, which is
  // exactly the global-id enumeration.
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    const auto &Events = Tr.Threads[T].Events;
    uint32_t NextIndex = 0;
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
          ++Index.TryFailPerLock[E.lock()];
          break;
        }
        CriticalSection Cs;
        Cs.Ref = CsRef{T, NextIndex++};
        Cs.GlobalId = static_cast<uint32_t>(Index.Sections.size());
        assert(Cs.GlobalId == Tr.globalCsId(Cs.Ref) &&
               "global-id enumeration mismatch");
        Cs.Lock = E.lock();
        Cs.Site = E.site();
        Cs.Mode = acquireModeOf(E);
        Cs.AcquireIdx = I;
        Cs.Depth = static_cast<unsigned>(OpenStack.size());
        OpenStack.push_back(Index.add(Cs));
        if (Bodies.size() < OpenStack.size())
          Bodies.emplace_back();
        Bodies[Cs.Depth].clear();
        break;
      }
      case EventKind::LockRelease: {
        assert(!OpenStack.empty() && "release without acquire; validate "
                                     "the trace first");
        CriticalSection &Cs = Index.Sections[OpenStack.back()];
        assert(Cs.Lock == E.lock() && "mismatched release");
        Cs.ReleaseIdx = I;
        Index.pack(OpenStack.back(), Bodies[Cs.Depth]);
        OpenStack.pop_back();
        break;
      }
      case EventKind::Compute:
        for (uint32_t Open : OpenStack)
          Index.Sections[Open].InnerCost += E.cost();
        break;
      case EventKind::Read:
      case EventKind::Write:
        Initial.insert(E.addr(), E.Kind == EventKind::Read ? E.value() : 0);
        [[fallthrough]];
      case EventKind::CondWait:
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        // Nested sections' events belong to every enclosing section.
        for (size_t D = 0; D != OpenStack.size(); ++D)
          Bodies[D].add(E);
        break;
      case EventKind::ThreadStart:
      case EventKind::ThreadEnd:
        break;
      }
    }
    assert(OpenStack.empty() && "unbalanced critical sections");
  }
  // Every slot's address was accessed by its own section, so the scan
  // decided it.
  Index.seedSlots([&](AddrId Addr) {
    const uint64_t *V = Initial.find(Addr);
    assert(V && "slot address never accessed");
    return *V;
  });

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
