//===- support/StringPool.cpp - Arena-backed string interner ---------------===//

#include "support/StringPool.h"

#include <cstring>
#include <functional>

using namespace perfplay;

/// Arena block size.  Large enough that symbol-heavy traces allocate a
/// handful of blocks, small enough that a near-empty pool stays cheap.
static constexpr size_t ChunkSize = 1 << 16;

std::string_view StringPool::copyToArena(std::string_view S) {
  if (S.empty())
    return std::string_view();
  if (S.size() > ChunkCap - ChunkUsed) {
    size_t Cap = S.size() > ChunkSize ? S.size() : ChunkSize;
    Chunks.push_back(std::make_unique<char[]>(Cap));
    ChunkCap = Cap;
    ChunkUsed = 0;
  }
  char *Dst = Chunks.back().get() + ChunkUsed;
  std::memcpy(Dst, S.data(), S.size());
  ChunkUsed += S.size();
  return std::string_view(Dst, S.size());
}

/// Slot count of a pool's first index.
static constexpr size_t MinSlots = 16;

static size_t hashOf(std::string_view S) {
  return std::hash<std::string_view>()(S);
}

void StringPool::growIndex() {
  size_t NewSize = Slots.empty() ? MinSlots : 2 * Slots.size();
  Slots.assign(NewSize, InvalidStringId);
  size_t Mask = NewSize - 1;
  for (StringId Id = 0; Id != Strings.size(); ++Id) {
    size_t I = hashOf(Strings[Id]) & Mask;
    while (Slots[I] != InvalidStringId)
      I = (I + 1) & Mask;
    Slots[I] = Id;
  }
}

StringId StringPool::intern(std::string_view S) {
  // Keep the table at most half full once this string is in.
  if (2 * (Strings.size() + 1) > Slots.size())
    growIndex();
  size_t Mask = Slots.size() - 1;
  for (size_t I = hashOf(S) & Mask;; I = (I + 1) & Mask) {
    StringId Id = Slots[I];
    if (Id == InvalidStringId) {
      Id = static_cast<StringId>(Strings.size());
      Strings.push_back(copyToArena(S));
      Slots[I] = Id;
      return Id;
    }
    if (Strings[Id] == S)
      return Id;
  }
}

void StringPool::copyFrom(const StringPool &Other) {
  // Deep copy preserving ids: every string is re-owned by this pool's
  // arena, so the copy shares no storage with the source.  The index
  // names ids, not storage, so it carries over unchanged.
  Strings.reserve(Other.Strings.size());
  for (std::string_view S : Other.Strings)
    Strings.push_back(copyToArena(S));
  Slots = Other.Slots;
}
