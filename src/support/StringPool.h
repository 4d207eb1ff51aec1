//===- support/StringPool.h - Arena-backed string interner ------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An arena-backed string interner handing out stable integer handles.
///
/// Symbol-heavy traces (the paper's Table 1 / Table 2 workloads, where
/// every lock and callsite carries a name) used to pay one
/// `std::string` heap allocation per name per parse.  The pool
/// collapses that: each distinct string is stored once and referred to
/// everywhere by a dense `StringId`, so
///
///  - name *equality* is an integer compare (section-key interning
///    and the recorder's site lookup never touch characters),
///  - and name *storage* is one arena, freed wholesale with the pool.
///
/// Interning is content-based: `intern()` returns the same id for equal
/// strings, copying only the first occurrence.  The content -> id index
/// is an open-addressing table of ids (power-of-two size, linear
/// probing, grown at half load) keyed by the strings the ids name, so
/// interning a new name is a hash, a probe and a store: no per-name
/// node allocation.
///
/// The pool owns every byte it hands out, so the caller's input buffer
/// (e.g. a trace file's mapping) may die as soon as `intern()` returns.
/// Handed-out `std::string_view`s point into heap chunks, so they
/// remain valid when the pool — or a `Trace` owning it — is moved.
///
/// Copying a pool deep-copies every string into the copy's own arena,
/// preserving ids; the index holds ids only, so it is copied as is.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_STRINGPOOL_H
#define PERFPLAY_SUPPORT_STRINGPOOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace perfplay {

/// Dense handle of one interned string; indexes the pool that produced
/// it.  Ids are assigned in first-intern order, starting at 0.
using StringId = uint32_t;

/// Sentinel for "no string" (e.g. a default-constructed LockInfo).
inline constexpr StringId InvalidStringId = 0xFFFFFFFFu;

/// Arena-backed string interner.  Movable and copyable (a copy owns
/// its own arena); not thread-safe — one pool belongs to one Trace.
class StringPool {
public:
  StringPool() = default;

  // Moves must reset the source's arena cursor: with defaulted moves
  // the source's Chunks vector empties but ChunkUsed/ChunkCap would
  // keep their old values, so a later intern() on the moved-from pool
  // would take the "fits in current chunk" path and dereference
  // Chunks.back() on an empty vector.
  StringPool(StringPool &&Other) noexcept
      : Strings(std::move(Other.Strings)), Slots(std::move(Other.Slots)),
        Chunks(std::move(Other.Chunks)), ChunkUsed(Other.ChunkUsed),
        ChunkCap(Other.ChunkCap) {
    Other.reset();
  }
  StringPool &operator=(StringPool &&Other) noexcept {
    if (this != &Other) {
      Strings = std::move(Other.Strings);
      Slots = std::move(Other.Slots);
      Chunks = std::move(Other.Chunks);
      ChunkUsed = Other.ChunkUsed;
      ChunkCap = Other.ChunkCap;
      Other.reset();
    }
    return *this;
  }

  StringPool(const StringPool &Other) { copyFrom(Other); }
  StringPool &operator=(const StringPool &Other) {
    if (this != &Other) {
      *this = StringPool();
      copyFrom(Other);
    }
    return *this;
  }

  /// Interns \p S: the first occurrence is copied into the pool's
  /// arena.  Returns the id of the (possibly pre-existing) entry with
  /// this content.
  StringId intern(std::string_view S);

  /// The string behind \p Id.  InvalidStringId (and any out-of-range
  /// id) resolves to the empty view, so renderers need no special
  /// casing for unnamed entries.
  std::string_view str(StringId Id) const {
    return Id < Strings.size() ? Strings[Id] : std::string_view();
  }

  /// Number of distinct strings interned.
  uint32_t size() const { return static_cast<uint32_t>(Strings.size()); }

  bool empty() const { return Strings.empty(); }

private:
  /// Returns the pool to its freshly-constructed state (used on the
  /// source of a move so it remains safely usable).
  void reset() {
    Strings.clear();
    Slots.clear();
    Chunks.clear();
    ChunkUsed = 0;
    ChunkCap = 0;
  }

  /// Copies \p S into the arena and returns the stable view.
  std::string_view copyToArena(std::string_view S);

  /// Doubles Slots (or creates it) and re-inserts every id.
  void growIndex();

  void copyFrom(const StringPool &Other);

  /// Id-indexed views into Chunks.
  std::vector<std::string_view> Strings;
  /// Content -> id: open-addressing slots holding ids (InvalidStringId
  /// = empty), keyed by Strings[id].  Size 0 or a power of two, at
  /// most half full.
  std::vector<StringId> Slots;
  /// Arena blocks.  unique_ptr-held so views stay valid across pool
  /// moves and vector growth.
  std::vector<std::unique_ptr<char[]>> Chunks;
  size_t ChunkUsed = 0;
  size_t ChunkCap = 0;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_STRINGPOOL_H
