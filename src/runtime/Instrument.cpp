//===- runtime/Instrument.cpp - Instrumented sync primitives ---------------===//

#include "runtime/Instrument.h"

#include "trace/TraceV3.h"

#include <deque>
#include <map>

using namespace perfplay;

Recorder::Recorder()
    : RT(record::RecordOptions(), [this](const void *Data, size_t Size) {
        const auto *P = static_cast<const uint8_t *>(Data);
        Bytes.insert(Bytes.end(), P, P + Size);
        return true;
      }) {}

Recorder::GrantList &Recorder::grants(LockId Lock) {
  MutexLock Guard(Mu);
  return Grants[Lock];
}

void Recorder::push(record::RecOp Op, LockId Lock, CodeSiteId Site,
                    uint64_t T0, uint8_t Flags, LockId Lock2) {
  record::RawRecord R;
  R.Op = Op;
  R.Flags = Flags;
  R.Lock = Lock;
  R.Lock2 = Lock2;
  R.Site = Site;
  R.T0 = T0;
  R.T1 = now();
  RT.pushRecord(R);
}

Expected<Trace> Recorder::finish() {
  record::RecordSummary S = RT.finalize();
  if (!S.Ok)
    return PipelineError(ErrorCode::RecordingFailed,
                         "recording failed: " + S.Error);
  if (S.Drops != 0)
    return PipelineError(ErrorCode::RecordingFailed,
                         "recording dropped " + std::to_string(S.Drops) +
                             " of " + std::to_string(S.Attempts) +
                             " records");
  Trace Tr;
  std::string Err;
  if (!parseTraceV3(Bytes.data(), Bytes.size(), Tr, Err))
    return PipelineError(ErrorCode::RecordingFailed,
                         "recorded trace does not parse: " + Err);

  // The k-th grant of thread T in a lock's list is T's k-th section on
  // that lock: map each to its per-thread section index.
  std::map<std::pair<LockId, ThreadId>, std::deque<uint32_t>> Sections;
  for (ThreadId T = 0; T != Tr.Threads.size(); ++T) {
    uint32_t Index = 0;
    for (const Event &E : Tr.Threads[T].Events)
      if (isSectionOpen(E))
        Sections[{E.lock(), T}].push_back(Index++);
  }
  Tr.LockSchedule.assign(Tr.Locks.size(), {});
  MutexLock Guard(Mu);
  for (const auto &[L, List] : Grants) {
    if (L >= Tr.Locks.size())
      continue; // Refused by a full lock table; finish() failed above.
    for (ThreadId T : List) {
      std::deque<uint32_t> &Queue = Sections[{L, T}];
      if (Queue.empty())
        continue;
      Tr.LockSchedule[L].push_back(CsRef{T, Queue.front()});
      Queue.pop_front();
    }
  }
  return Tr;
}

AddrId perfplay::allocateShadowAddr() {
  static std::atomic<AddrId> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}
