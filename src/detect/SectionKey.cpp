//===- detect/SectionKey.cpp - Canonical critical-section keys --------------===//

#include "detect/SectionKey.h"

#include "support/FlatMap.h"

using namespace perfplay;

size_t SignatureInterner::WordsHash::operator()(
    const std::vector<uint64_t> &Words) const {
  uint64_t H = 0x2545f4914f6cdd1dULL;
  for (uint64_t W : Words)
    H = hashInteger(H ^ W);
  return static_cast<size_t>(H);
}

std::pair<uint32_t, bool>
SignatureInterner::intern(LockId Lock, CodeSiteId Site, AcquireMode Mode,
                          const Event *Begin, const Event *End) {
  std::vector<uint64_t> Words;
  Words.reserve(2 + static_cast<size_t>(End - Begin) * 2);
  Words.push_back(Lock);
  Words.push_back(Site);
  // Shared-mode (rwlock reader) sections classify differently from
  // exclusive ones at identical bodies, so the mode is part of the
  // key.  The marker is emitted only for Shared so mutex-only
  // signatures stay word-identical to the pre-rwlock format.
  if (Mode == AcquireMode::Shared)
    Words.push_back(5);
  for (const Event *E = Begin; E != End; ++E) {
    if (E->Kind == EventKind::Read) {
      Words.push_back(1);
      Words.push_back(E->addr());
    } else if (E->Kind == EventKind::Write) {
      Words.push_back(2 | (static_cast<uint64_t>(E->Op) << 8));
      Words.push_back(E->addr());
      Words.push_back(E->value());
    } else if (E->Kind == EventKind::CondWait) {
      Words.push_back(3);
      Words.push_back(E->lock());
    } else if (E->Kind == EventKind::CondSignal ||
               E->Kind == EventKind::CondBroadcast) {
      Words.push_back(4);
      Words.push_back(E->lock());
    }
    // Nested acquire/release and Compute events are invisible to both
    // Algorithm 1 and the reversed replay.
  }
  auto It = Interned.emplace(std::move(Words), numKeys());
  return {It.first->second, It.second};
}

uint32_t SignatureInterner::intern(const Trace &Tr,
                                   const CriticalSection &Cs) {
  const Event *Events = Tr.Threads[Cs.Ref.Thread].Events.data();
  return intern(Cs.Lock, Cs.Site, Cs.Mode, Events + Cs.AcquireIdx + 1,
                Events + Cs.ReleaseIdx)
      .first;
}

SectionKeyTable perfplay::internSectionKeys(const Trace &Tr,
                                            const CsIndex &Index) {
  SectionKeyTable Table;
  Table.KeyOf.resize(Index.size());
  SignatureInterner Interner;
  Interner.reserve(Index.size());
  for (const CriticalSection &Cs : Index.all())
    Table.KeyOf[Cs.GlobalId] = Interner.intern(Tr, Cs);
  Table.NumKeys = Interner.numKeys();
  return Table;
}
