//===- trace/Summary.cpp - Trace statistics ----------------------------------===//

#include "trace/Summary.h"

#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace perfplay;

TraceSummary perfplay::summarizeTrace(const Trace &Tr) {
  TraceSummary S;
  S.NumThreads = Tr.numThreads();

  std::vector<uint64_t> Acquisitions(Tr.Locks.size(), 0);
  std::vector<std::set<ThreadId>> Users(Tr.Locks.size());

  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    unsigned Depth = 0;
    for (const Event &E : Tr.Threads[T].Events) {
      ++S.NumEvents;
      ++S.KindCounts[static_cast<size_t>(E.Kind)];
      switch (E.Kind) {
      case EventKind::LockAcquire:
        ++S.NumCriticalSections;
        ++Acquisitions[E.lock()];
        Users[E.lock()].insert(T);
        ++Depth;
        S.MaxNesting = std::max(S.MaxNesting, Depth);
        break;
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
        ++S.NumCriticalSections;
        ++Acquisitions[E.lock()];
        Users[E.lock()].insert(T);
        ++Depth;
        S.MaxNesting = std::max(S.MaxNesting, Depth);
        if (E.Kind == EventKind::RwAcquireRead)
          ++S.RwReadAcquires;
        else
          ++S.RwWriteAcquires;
        break;
      case EventKind::TryAcquire:
        if (E.TrySucceeded) {
          ++S.TrySuccesses;
          ++S.NumCriticalSections;
          ++Acquisitions[E.lock()];
          Users[E.lock()].insert(T);
          ++Depth;
          S.MaxNesting = std::max(S.MaxNesting, Depth);
        } else {
          ++S.TryFailures;
        }
        break;
      case EventKind::CondWait:
        ++S.CondWaits;
        break;
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        ++S.CondSignals;
        break;
      case EventKind::LockRelease:
        --Depth;
        break;
      case EventKind::Read:
        ++S.NumReads;
        break;
      case EventKind::Write:
        ++S.NumWrites;
        break;
      case EventKind::Compute:
        ++S.NumComputeEvents;
        S.TotalComputeNs += E.cost();
        if (Depth > 0)
          S.InCsComputeNs += E.cost();
        break;
      case EventKind::ThreadStart:
      case EventKind::ThreadEnd:
        break;
      }
    }
  }

  for (LockId L = 0; L != Tr.Locks.size(); ++L) {
    LockSummary Row;
    Row.Lock = L;
    Row.Acquisitions = Acquisitions[L];
    Row.Threads = static_cast<unsigned>(Users[L].size());
    Row.IsSpin = Tr.Locks[L].IsSpin;
    S.Locks.push_back(Row);
  }
  std::stable_sort(S.Locks.begin(), S.Locks.end(),
                   [](const LockSummary &A, const LockSummary &B) {
                     return A.Acquisitions > B.Acquisitions;
                   });
  return S;
}

std::string perfplay::renderSummary(const Trace &Tr,
                                    const TraceSummary &S,
                                    unsigned MaxLocks) {
  std::ostringstream OS;
  OS << "threads: " << S.NumThreads << ", events: " << S.NumEvents
     << ", critical sections: " << S.NumCriticalSections << "\n";
  OS << "reads: " << S.NumReads << ", writes: " << S.NumWrites
     << ", max nesting: " << S.MaxNesting << "\n";
  OS << "computation: " << formatNs(S.TotalComputeNs) << " total, "
     << formatPercent(S.inCsFraction()) << " inside critical sections\n";

  Table Hist;
  Hist.addRow({"kind", "count"});
  for (size_t K = 0; K != NumEventKinds; ++K) {
    if (S.KindCounts[K] == 0)
      continue;
    Hist.addRow({eventKindName(static_cast<EventKind>(K)),
                 std::to_string(S.KindCounts[K])});
  }
  OS << "\nevent kinds:\n" << Hist.render();
  if (S.RwReadAcquires + S.RwWriteAcquires != 0)
    OS << "rwlock acquires: " << S.RwReadAcquires << " read, "
       << S.RwWriteAcquires << " write\n";
  if (S.TrySuccesses + S.TryFailures != 0)
    OS << "trylock attempts: " << S.TrySuccesses << " succeeded, "
       << S.TryFailures << " failed\n";
  if (S.CondWaits + S.CondSignals != 0)
    OS << "condvar: " << S.CondWaits << " waits, " << S.CondSignals
       << " signals\n";

  Table T;
  T.addRow({"lock", "acquisitions", "threads", "spin"});
  unsigned Shown = 0;
  for (const LockSummary &Row : S.Locks) {
    if (Row.Acquisitions == 0 || Shown++ == MaxLocks)
      break;
    T.addRow({std::string(Tr.lockName(Row.Lock)),
              std::to_string(Row.Acquisitions),
              std::to_string(Row.Threads), Row.IsSpin ? "yes" : "no"});
  }
  if (T.numRows() > 1)
    OS << "\nhottest locks:\n" << T.render();
  return OS.str();
}
