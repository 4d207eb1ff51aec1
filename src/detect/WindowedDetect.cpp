//===- detect/WindowedDetect.cpp - Bounded-memory ULCP detection ----------===//
//
// Parity with detectUlcps is the whole contract.  The parts that
// decide verdicts are shared code: signatures go through
// SignatureInterner (detect/SectionKey.h), whose words cover all that
// classification reads, representatives through SectionTable::pack,
// and finish() through the whole-trace path's enumeratePairs
// (detect/PairEnumerator.h).  What this file adds mirrors a specific
// piece of the whole-trace path:
//
//  - the incremental first-access fold reproduces the thread-major
//    scan CsIndex::build seeds slots from (lowest accessing thread
//    wins; within a thread, program order),
//  - global ids are derived from per-thread acquire ordinals exactly
//    as Trace::globalCsId numbers them, and the per-lock order follows
//    CsIndex::build (grant schedule when present, global-id order
//    otherwise).
//
//===----------------------------------------------------------------------===//

#include "detect/WindowedDetect.h"

#include "detect/Classify.h"
#include "detect/PairEnumerator.h"

#include <cassert>

using namespace perfplay;

WindowedDetector::WindowedDetector(DetectOptions Opts)
    : Opts(std::move(Opts)) {}

WindowedDetector::~WindowedDetector() = default;

WindowedDetector::ThreadState &WindowedDetector::stateOf(ThreadId T) {
  if (T >= Threads.size())
    Threads.resize(T + 1);
  return Threads[T];
}

void WindowedDetector::noteAccess(ThreadId T, const Event &E) {
  // Thread-major first-access fold: an existing candidate from the
  // same or a lower thread was recorded earlier in that thread's
  // program order and wins; a candidate from a higher thread loses to
  // this one regardless of arrival order.
  const FirstAccess *Existing = First.find(E.addr());
  if (Existing && Existing->Thread <= T)
    return;
  FirstAccess FA;
  FA.Thread = T;
  FA.IsRead = E.Kind == EventKind::Read ? 1 : 0;
  FA.Value = E.value();
  First[E.addr()] = FA;
}

uint32_t WindowedDetector::closeSection(OpenSection &&Top) {
  ++TotalSections;
  OpenEvents -= Top.Buf.size();
  // Top.Buf is the verbatim [acquire .. release] range; the signature
  // covers its exclusive interior.
  const Event *Interior = Top.Buf.data() + 1;
  const Event *InteriorEnd = Top.Buf.data() + Top.Buf.size() - 1;
  auto [Key, IsNew] = Signatures.intern(Top.Lock, Top.Site, Top.Mode,
                                        Interior, InteriorEnd);
  if (IsNew) {
    // New signature: this section becomes the class representative,
    // packed into the table at position Key (keys are dense in
    // first-seen order), its accesses in program order, nested
    // sections included.
    CriticalSection Rep;
    Rep.Ref = CsRef{0, Key};
    Rep.GlobalId = Key;
    Rep.Lock = Top.Lock;
    Rep.Site = Top.Site;
    Rep.Mode = Top.Mode;
    Body.clear();
    for (const Event *E = Interior; E != InteriorEnd; ++E)
      Body.add(*E);
    const uint32_t Pos = Reps.add(Rep);
    assert(Pos == Key && "representatives out of key order");
    Reps.pack(Pos, Body);
  }
  return Key;
}

bool WindowedDetector::addEvents(ThreadId T, const Event *Events, size_t N,
                                 std::string &Err) {
  if (!StreamErr.empty()) {
    Err = StreamErr;
    return false;
  }
  ThreadState &TS = stateOf(T);
  const bool TrackInitial = Opts.UseReversedReplay;
  for (size_t I = 0; I != N; ++I) {
    const Event &E = Events[I];
    if (TrackInitial &&
        (E.Kind == EventKind::Read || E.Kind == EventKind::Write))
      noteAccess(T, E);
    // Every open section's range includes this event (nested sections
    // belong to each enclosing one, as in CsIndex::build).
    for (OpenSection &Open : TS.Stack)
      Open.Buf.push_back(E);
    OpenEvents += TS.Stack.size();

    if (isSectionOpen(E)) {
      OpenSection Open;
      Open.PerThreadIdx = static_cast<uint32_t>(TS.Locks.size());
      Open.Lock = E.lock();
      Open.Site = E.site();
      Open.Mode = acquireModeOf(E);
      Open.Buf.push_back(E);
      ++OpenEvents;
      TS.Stack.push_back(std::move(Open));
      TS.Locks.push_back(E.lock());
      TS.KeyIds.push_back(InvalidId);
    } else if (E.Kind == EventKind::TryAcquire) {
      // A failed trylock (isSectionOpen is false) opens nothing; fold
      // it into the per-lock failure counts finish() emits.
      ++TryFails[E.lock()];
    } else if (E.Kind == EventKind::LockRelease) {
      if (TS.Stack.empty()) {
        StreamErr = "windowed detection: lock release without matching "
                    "acquire in thread " +
                    std::to_string(T);
        Err = StreamErr;
        return false;
      }
      OpenSection Top = std::move(TS.Stack.back());
      TS.Stack.pop_back();
      if (Top.Lock != E.lock()) {
        StreamErr = "windowed detection: mismatched lock release in "
                    "thread " +
                    std::to_string(T);
        Err = StreamErr;
        return false;
      }
      // The enclosing-sections loop above already appended the release
      // into Top.Buf (it was still on the stack), so the buffer is the
      // complete [acquire .. release] range.
      uint32_t Idx = Top.PerThreadIdx;
      TS.KeyIds[Idx] = closeSection(std::move(Top));
    }
    if (OpenEvents > PeakOpenEvents)
      PeakOpenEvents = OpenEvents;
  }
  return true;
}

bool WindowedDetector::finish(const Trace &Tables, DetectResult &Out,
                              std::string &Err) {
  if (!StreamErr.empty()) {
    Err = StreamErr;
    return false;
  }
  for (size_t T = 0; T != Threads.size(); ++T)
    if (!Threads[T].Stack.empty()) {
      Err = "windowed detection: critical section still open at end of "
            "trace in thread " +
            std::to_string(T);
      return false;
    }

  const size_t NumLocks = Tables.Locks.size();
  for (const ThreadState &TS : Threads)
    for (LockId L : TS.Locks)
      if (L == InvalidId || L >= NumLocks) {
        Err = "windowed detection: acquire references undefined lock";
        return false;
      }
  bool BadTryLock = false;
  TryFails.forEach([&](LockId L, const uint64_t &) {
    if (L == InvalidId || L >= NumLocks)
      BadTryLock = true;
  });
  if (BadTryLock) {
    Err = "windowed detection: trylock references undefined lock";
    return false;
  }

  // Global ids: thread-major acquire ordinals (Trace::globalCsId).
  std::vector<uint64_t> Prefix(Threads.size() + 1, 0);
  for (size_t T = 0; T != Threads.size(); ++T)
    Prefix[T + 1] = Prefix[T] + Threads[T].Locks.size();
  if (Prefix.back() > InvalidId) {
    Err = "windowed detection: too many critical sections";
    return false;
  }
  const uint32_t Total = static_cast<uint32_t>(Prefix.back());

  // Flatten the per-thread metadata into global-id-indexed arrays and
  // build the per-lock pairing order (mirroring CsIndex::build) in one
  // pass, releasing each thread's vectors as they are consumed.  The
  // incremental release matters: holding both representations across
  // the whole build would put the per-section high-water mark at 20
  // bytes instead of ~12+, which is most of the out-of-core bench's
  // RSS budget.  The detector cannot accept further events afterwards
  // (finish ends the stream).
  std::vector<uint32_t> SecThread(Total), SecKey(Total);
  std::vector<std::vector<uint32_t>> PerLock(NumLocks);
  const bool UseSchedule = !Tables.LockSchedule.empty();
  if (UseSchedule) {
    if (Tables.LockSchedule.size() > NumLocks) {
      Err = "windowed detection: lock schedule exceeds lock table";
      return false;
    }
    for (LockId L = 0; L != Tables.LockSchedule.size(); ++L)
      for (const CsRef &Ref : Tables.LockSchedule[L]) {
        if (Ref.Thread >= Threads.size() ||
            Ref.Index >= Threads[Ref.Thread].Locks.size()) {
          Err = "windowed detection: lock schedule references a missing "
                "critical section";
          return false;
        }
        PerLock[L].push_back(
            static_cast<uint32_t>(Prefix[Ref.Thread] + Ref.Index));
      }
  }
  for (size_t T = 0; T != Threads.size(); ++T) {
    ThreadState &TS = Threads[T];
    for (size_t I = 0; I != TS.Locks.size(); ++I) {
      uint32_t Gid = static_cast<uint32_t>(Prefix[T] + I);
      SecThread[Gid] = static_cast<uint32_t>(T);
      SecKey[Gid] = TS.KeyIds[I];
      // Thread-major appending is exactly global-id order.
      if (!UseSchedule)
        PerLock[TS.Locks[I]].push_back(Gid);
    }
    TS.Locks = std::vector<LockId>();
    TS.KeyIds = std::vector<uint32_t>();
  }

  // Slot initial values: the fold kept exactly the accesses
  // CsIndex::build's scan decides on.
  if (Opts.UseReversedReplay)
    Reps.seedSlots([&](AddrId Addr) {
      const FirstAccess *FA = First.find(Addr);
      return FA && FA->IsRead ? FA->Value : 0;
    });

  // detectUlcps' enumeration with representatives standing in for the
  // dynamic sections.
  Out = DetectResult();
  enumeratePairs(
      Opts, PerLock, SecThread,
      [&](uint32_t G1, uint32_t G2) {
        const CriticalSection &C1 = Reps.byGlobalId(SecKey[G1]);
        const CriticalSection &C2 = Reps.byGlobalId(SecKey[G2]);
        return Opts.UseReversedReplay ? classifyPair(Reps, C1, C2)
                                      : classifyPairStatic(Reps, C1, C2);
      },
      Out);
  Out.TryFailPerLock.assign(NumLocks, 0);
  Out.TryFailEdges = 0;
  TryFails.forEach([&](LockId L, const uint64_t &N) {
    Out.TryFailPerLock[L] = N;
    Out.TryFailEdges += N;
  });
  return true;
}
