//===- record/Flusher.cpp - RawRecord → TraceV3Writer translator ----------===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "record/Flusher.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <dlfcn.h>
#endif

namespace perfplay {
namespace record {

namespace {

const char *lockTagName(uint8_t Tag) {
  switch (Tag) {
  case LockTagRwlock:
    return "rwlock";
  case LockTagCond:
    return "cond";
  default:
    return "mutex";
  }
}

std::string hexAddr(uintptr_t A) {
  char Buf[2 + 16 + 1];
  std::snprintf(Buf, sizeof(Buf), "0x%" PRIxPTR, A);
  return Buf;
}

#if defined(__unix__) && !defined(__APPLE__)
/// Scans /proc/self/maps for the executable mapping containing
/// \p Addr.  Returns true with the object path and the offset of
/// \p Addr from the mapping start.
bool moduleOfAddress(uintptr_t Addr, std::string &Path, uintptr_t &Offset) {
  std::FILE *Maps = std::fopen("/proc/self/maps", "r");
  if (!Maps)
    return false;
  char Line[512];
  bool Found = false;
  while (std::fgets(Line, sizeof(Line), Maps)) {
    uintptr_t Lo = 0, Hi = 0;
    char Perms[8] = {};
    int PathPos = -1;
    if (std::sscanf(Line, "%" SCNxPTR "-%" SCNxPTR " %7s %*s %*s %*s %n", &Lo,
                    &Hi, Perms, &PathPos) < 3)
      continue;
    if (Addr < Lo || Addr >= Hi)
      continue;
    if (PathPos > 0) {
      char *P = Line + PathPos;
      size_t Len = std::strcspn(P, "\n");
      Path.assign(P, Len);
    }
    Offset = Addr - Lo;
    Found = true;
    break;
  }
  std::fclose(Maps);
  return Found && !Path.empty();
}
#endif

} // namespace

void describeReturnAddress(uintptr_t Addr, std::string &File,
                           std::string &Function) {
  File = "??";
  Function.clear();
#if defined(__unix__) || defined(__APPLE__)
  Dl_info Info;
  std::memset(&Info, 0, sizeof(Info));
  if (dladdr(reinterpret_cast<void *>(Addr), &Info)) {
    if (Info.dli_fname && *Info.dli_fname)
      File = Info.dli_fname;
    if (Info.dli_sname && *Info.dli_sname) {
      Function = Info.dli_sname;
      return;
    }
  }
#endif
#if defined(__unix__) && !defined(__APPLE__)
  std::string Path;
  uintptr_t Offset = 0;
  if (moduleOfAddress(Addr, Path, Offset)) {
    if (File == "??")
      File = Path;
    Function = Path;
    size_t Slash = Function.rfind('/');
    if (Slash != std::string::npos)
      Function.erase(0, Slash + 1);
    Function += "+" + hexAddr(Offset);
    return;
  }
#endif
  Function = hexAddr(Addr);
}

TraceFlusher::TraceFlusher(TraceV3Writer::Sink Out, size_t ChunkBytes)
    : Writer(std::make_unique<TraceV3Writer>(std::move(Out), ChunkBytes)) {}

void TraceFlusher::ensureLock(uint32_t Id, const AddrTable &Locks) {
  while (WriterLocks <= Id) {
    uintptr_t Addr = 0;
    uint8_t Tag = 0;
    Locks.entry(WriterLocks, Addr, Tag);
    if (Tag == LockTagNamed) {
      const auto *Named = reinterpret_cast<const NamedLock *>(Addr);
      Writer->addLock(Named->IsSpin, Named->Name);
    } else {
      Writer->addLock(/*IsSpin=*/false,
                      std::string(lockTagName(Tag)) + "@" + hexAddr(Addr));
    }
    ++WriterLocks;
  }
}

void TraceFlusher::ensureSite(uint32_t Id, const AddrTable &Sites) {
  while (WriterSites <= Id) {
    uintptr_t Addr = 0;
    uint8_t Tag = 0;
    Sites.entry(WriterSites, Addr, Tag);
    if (Tag == SiteTagNamed) {
      const auto *Named = reinterpret_cast<const NamedSite *>(Addr);
      Writer->addSite(Named->BeginLine, Named->EndLine, Named->File,
                      Named->Function);
    } else {
      std::string SiteFile, SiteFn;
      describeReturnAddress(Addr, SiteFile, SiteFn);
      Writer->addSite(/*BeginLine=*/0, /*EndLine=*/0, SiteFile, SiteFn);
    }
    ++WriterSites;
  }
}

uint32_t TraceFlusher::siteOf(uint32_t Id, const AddrTable &Sites) {
  if (Id == InvalidRecId)
    return InvalidId;
  ensureSite(Id, Sites);
  return Id;
}

void TraceFlusher::emit(const Event &E) {
  Writer->append(E);
  ++Stats.TraceEvents;
}

void TraceFlusher::charge(EmitState &ES, uint64_t Now) {
  if (Now > ES.LastTs)
    emit(Event::compute(Now - ES.LastTs));
  ES.LastTs = std::max(ES.LastTs, Now);
}

void TraceFlusher::emitOpen(EmitState &ES, EventKind Kind, uint32_t Lock,
                            uint32_t Site, bool Shared) {
  switch (Kind) {
  case EventKind::RwAcquireRead:
    emit(Event::rwAcquireRead(Lock, Site));
    break;
  case EventKind::RwAcquireWrite:
    emit(Event::rwAcquireWrite(Lock, Site));
    break;
  case EventKind::TryAcquire:
    emit(Event::tryAcquire(Lock, Site, /*Succeeded=*/true,
                           Shared ? AcquireMode::Shared
                                  : AcquireMode::Exclusive));
    break;
  default:
    emit(Event::lockAcquire(Lock, Site));
    break;
  }
  ++Stats.Sections;
  // Re-opens after a LIFO fixup use the blocking form of the original
  // mode: a successful-try section reopened as TryAcquire would read
  // as a second attempt.
  EventKind Reopen = Kind == EventKind::RwAcquireRead
                         ? EventKind::RwAcquireRead
                         : (Kind == EventKind::RwAcquireWrite
                                ? EventKind::RwAcquireWrite
                                : EventKind::LockAcquire);
  if (Kind == EventKind::TryAcquire && Shared)
    Reopen = EventKind::RwAcquireRead;
  ES.Stack.push_back(OpenSection{Lock, Site, Reopen});
}

std::vector<TraceFlusher::OpenSection>
TraceFlusher::unwindAbove(EmitState &ES, size_t From) {
  std::vector<OpenSection> Saved(ES.Stack.begin() +
                                     static_cast<ptrdiff_t>(From),
                                 ES.Stack.end());
  for (size_t I = ES.Stack.size(); I > From; --I) {
    emit(Event::lockRelease(ES.Stack[I - 1].Lock));
    ++Stats.SynthesizedReleases;
  }
  ES.Stack.resize(From);
  return Saved;
}

void TraceFlusher::reopen(EmitState &ES,
                          const std::vector<OpenSection> &Saved) {
  for (const OpenSection &S : Saved)
    emitOpen(ES, S.ReopenKind, S.Lock, S.Site);
}

void TraceFlusher::closeThread(EmitState &ES) {
  if (ES.Ended)
    return;
  if (!ES.Started)
    emit(Event::threadStart());
  ES.Started = true;
  for (size_t I = ES.Stack.size(); I > 0; --I) {
    emit(Event::lockRelease(ES.Stack[I - 1].Lock));
    ++Stats.SynthesizedReleases;
  }
  ES.Stack.clear();
  emit(Event::threadEnd());
  ES.Ended = true;
}

void TraceFlusher::translate(EmitState &ES, const RawRecord &R,
                             const AddrTable &Locks, const AddrTable &Sites) {
  ++Stats.Records;
  if (ES.Ended) {
    // A TLS destructor that ran after ours took a lock; there is no
    // legal place left in this thread's stream.
    ++Stats.UnmatchedReleases;
    return;
  }
  const bool Access = R.Op == RecOp::Read || R.Op == RecOp::Write;
  if (!ES.Started) {
    emit(Event::threadStart());
    ES.Started = true;
    ES.LastTs = Access ? R.T1 : R.T0;
  }
  if (carriesLock(R.Op) && R.Lock != InvalidRecId)
    ensureLock(R.Lock, Locks);

  switch (R.Op) {
  case RecOp::MutexAcquire:
  case RecOp::RwAcquireRead:
  case RecOp::RwAcquireWrite: {
    charge(ES, R.T0); // Compute up to wait start; the wait itself
                      // (T0..T1) is never charged.
    EventKind Kind = R.Op == RecOp::MutexAcquire
                         ? EventKind::LockAcquire
                         : (R.Op == RecOp::RwAcquireRead
                                ? EventKind::RwAcquireRead
                                : EventKind::RwAcquireWrite);
    emitOpen(ES, Kind, R.Lock, siteOf(R.Site, Sites));
    ES.LastTs = R.T1;
    break;
  }
  case RecOp::TryAcquire: {
    charge(ES, R.T0);
    bool Ok = (R.Flags & RecFlagTrySucceeded) != 0;
    uint32_t Site = siteOf(R.Site, Sites);
    if (Ok) {
      emitOpen(ES, EventKind::TryAcquire, R.Lock, Site,
               (R.Flags & RecFlagShared) != 0);
    } else {
      Event E = Event::tryAcquire(R.Lock, Site, false,
                                  (R.Flags & RecFlagShared)
                                      ? AcquireMode::Shared
                                      : AcquireMode::Exclusive);
      emit(E);
    }
    ES.LastTs = R.T1;
    break;
  }
  case RecOp::Release: {
    charge(ES, R.T0);
    size_t Pos = ES.Stack.size();
    while (Pos > 0 && ES.Stack[Pos - 1].Lock != R.Lock)
      --Pos;
    if (Pos == 0) {
      ++Stats.UnmatchedReleases;
      break;
    }
    // Pos-1 holds the innermost section of this lock; everything above
    // it must close first (hand-over-hand unlock order) and re-open
    // after, keeping the stream LIFO while the program is not.
    std::vector<OpenSection> Saved = unwindAbove(ES, Pos);
    emit(Event::lockRelease(R.Lock));
    ES.Stack.pop_back();
    reopen(ES, Saved);
    break;
  }
  case RecOp::CondWait: {
    uint32_t Site = siteOf(R.Site, Sites);
    size_t Pos = ES.Stack.size();
    while (Pos > 0 && ES.Stack[Pos - 1].Lock != R.Lock2)
      --Pos;
    charge(ES, R.T0);
    if (Pos == 0) {
      // The protecting mutex has no recorded open: keep the ordering
      // edge, suppress the dance.
      emit(Event::condWait(R.Lock, Site));
      ++Stats.UnmatchedReleases;
      ES.LastTs = R.T1;
      break;
    }
    std::vector<OpenSection> Saved = unwindAbove(ES, Pos);
    // Mirror RecordingCondition::wait: the edge lands inside the
    // section that decided to sleep, the section closes, the sleep is
    // waiting (not compute), and a fresh section opens at wake-up.
    emit(Event::condWait(R.Lock, Site));
    OpenSection M = ES.Stack.back();
    emit(Event::lockRelease(M.Lock));
    ES.Stack.pop_back();
    emitOpen(ES, M.ReopenKind, M.Lock, Site);
    reopen(ES, Saved);
    ES.LastTs = R.T1;
    break;
  }
  case RecOp::CondSignal:
    charge(ES, R.T0);
    emit(Event::condSignal(R.Lock));
    break;
  case RecOp::CondBroadcast:
    charge(ES, R.T0);
    emit(Event::condBroadcast(R.Lock));
    break;
  case RecOp::ThreadEnd:
    charge(ES, R.T0);
    closeThread(ES);
    break;
  case RecOp::ThreadStart:
    break; // Framing is emitted above; LastTs now starts the clock.
  case RecOp::Read:
    charge(ES, R.T1);
    emit(Event::read(accessAddr(R), R.T0));
    break;
  case RecOp::Write:
    charge(ES, R.T1);
    emit(Event::write(accessAddr(R), R.T0,
                      static_cast<WriteOpKind>(R.Flags)));
    break;
  }
}

void TraceFlusher::drain(ThreadState &TS, const AddrTable &Locks,
                         const AddrTable &Sites) {
  if (Finalized)
    return;
  if (PerThread.size() <= TS.Id)
    PerThread.resize(TS.Id + 1);
  EmitState &ES = PerThread[TS.Id];
  bool Began = false;
  TS.Ring.drain([&](const RawRecord &R) {
    if (!Began) {
      Writer->beginThread(TS.Id);
      Began = true;
    }
    translate(ES, R, Locks, Sites);
  });
}

bool TraceFlusher::finalize(uint32_t NumThreads, const AddrTable &Locks,
                            const AddrTable &Sites, std::string &OutErr) {
  Finalized = true;
  if (Locks.count() != 0)
    ensureLock(Locks.count() - 1, Locks);
  if (Sites.count() != 0)
    ensureSite(Sites.count() - 1, Sites);
  if (PerThread.size() < NumThreads)
    PerThread.resize(NumThreads);
  for (uint32_t T = 0; T != PerThread.size(); ++T) {
    EmitState &ES = PerThread[T];
    if (ES.Ended)
      continue;
    Writer->beginThread(T);
    closeThread(ES);
  }
  Writer->setNumThreads(static_cast<uint32_t>(PerThread.size()));
  return Writer->finish(OutErr);
}

} // namespace record
} // namespace perfplay
