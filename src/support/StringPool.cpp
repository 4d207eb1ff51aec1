//===- support/StringPool.cpp - Arena-backed string interner ---------------===//

#include "support/StringPool.h"

#include <cstring>

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

StringId StringPool::intern(std::string_view S) {
  auto It = Index.find(S);
  if (It != Index.end())
    return It->second;
  std::string_view Stored = copyToArena(S);
  StringId Id = static_cast<StringId>(Strings.size());
  Strings.push_back(Stored);
  Index.emplace(Stored, Id);
  return Id;
}

void StringPool::copyFrom(const StringPool &Other) {
  // Deep copy preserving ids: every string is re-owned by this pool's
  // arena, so the copy shares no storage with the source.
  Strings.reserve(Other.Strings.size());
  Index.reserve(Other.Strings.size());
  for (std::string_view S : Other.Strings) {
    std::string_view Stored = copyToArena(S);
    StringId Id = static_cast<StringId>(Strings.size());
    Strings.push_back(Stored);
    Index.emplace(Stored, Id);
  }
}
