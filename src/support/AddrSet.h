//===- support/AddrSet.h - Chunked bitmap address sets ----------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-level chunked bitmap set over 64-bit values, built for the
/// detection phase's read/write-set intersections (Algorithm 1 / RULE
/// 4).  The value space is split into 1024-value chunks addressed by a
/// sorted vector of chunk keys; each chunk stores its members either as
/// a small sorted array of 10-bit offsets or, past a density threshold,
/// as a 1024-bit bitmap whose intersection is a word-parallel uint64
/// AND loop the compiler auto-vectorizes.  A 64-bit membership digest
/// rejects most disjoint pairs in O(1) before any block is walked.
///
/// Compared to the sorted-vector sets of support/SetOps.h, an
/// `intersects` over two wide dense sets costs O(values / 64) word ANDs
/// instead of O(values) element comparisons, and sets that populate
/// different chunks intersect in O(chunks) key comparisons regardless
/// of how many values each chunk holds.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_ADDRSET_H
#define PERFPLAY_SUPPORT_ADDRSET_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfplay {

/// Sorted-chunk bitmap set over `uint64_t` values (addresses, lock
/// ids).  Insertion-ordered building is supported, but the cheapest
/// construction is \ref fromSorted over an already sorted,
/// de-duplicated vector — the form critical-section read/write sets
/// and locksets are canonicalized into anyway.
///
/// Determinism: the set is a pure value container.  Iteration
/// (\ref forEach, \ref toSorted) is always in ascending value order,
/// and \ref intersects / \ref intersectCount agree exactly with the
/// sorted-vector ground truth (`sortedIntersects`), which lets
/// Algorithm 1 pick either kernel per intersection without changing a
/// verdict.
class AddrSet {
public:
  /// Element type.  AddrId and LockId both convert losslessly.
  using Value = uint64_t;

  /// log2 of the chunk width: each chunk covers 1024 consecutive
  /// values, i.e. one 1024-bit bitmap (16 uint64 words).
  static constexpr unsigned ChunkShift = 10;
  /// Values per chunk (1024).
  static constexpr unsigned ChunkSize = 1u << ChunkShift;
  /// uint64 words per bitmap block (16).
  static constexpr unsigned WordsPerChunk = ChunkSize / 64;
  /// Maximum population of a small sorted-array block.  Inserting the
  /// (SmallMax+1)-th member of a chunk promotes it to a bitmap block;
  /// erasing a bitmap block down to \ref DemoteAt members demotes it
  /// back (the gap is hysteresis: a set oscillating around the
  /// boundary must not rewrite its block on every mutation).
  /// 64 two-byte offsets occupy exactly the 128 bytes of the bitmap
  /// they alias in the block union, so promotion never grows a block.
  static constexpr unsigned SmallMax = 64;
  /// Bitmap population at or below which \ref erase demotes the block
  /// back to the small sorted-array form.
  static constexpr unsigned DemoteAt = SmallMax / 2;

  AddrSet() = default;

  /// Builds a set from a sorted vector.  Duplicates are tolerated
  /// (inserted once); this is the O(n) bulk-construction path used by
  /// CsIndex for the canonicalized read/write sets.
  static AddrSet fromSorted(const std::vector<Value> &Sorted);

  /// Inserts \p V.  Returns true if it was newly inserted.  A small
  /// block holding SmallMax members auto-promotes to a bitmap.
  bool insert(Value V);

  /// Erases \p V.  Returns true if it was present.  A bitmap block
  /// whose population drops to \ref DemoteAt demotes back to a small
  /// block; an emptied chunk is removed entirely.  The digest is
  /// *not* shrunk (see \ref digest).
  bool erase(Value V);

  /// Membership test: two binary searches (chunk key, then offset) or
  /// one bit probe.
  bool contains(Value V) const;

  /// Number of values in the set.
  size_t size() const { return NumValues; }
  bool empty() const { return NumValues == 0; }

  /// Number of populated chunks.  `size() / chunkCount()` is the mean
  /// chunk occupancy — the density signal Algorithm 1 uses to decide
  /// whether the word-parallel walk beats the sorted-vector merge.
  size_t chunkCount() const { return Keys.size(); }

  /// Removes every value.
  void clear();

  /// 64-bit membership digest (a one-hash Bloom filter): every member
  /// sets one digest bit, so `(a.digest() & b.digest()) == 0` proves
  /// the sets disjoint without touching any block.  The digest is a
  /// conservative superset after \ref erase (bits are never cleared,
  /// since other members may share them); it is exact for sets built
  /// by insertion only.
  uint64_t digest() const { return Digest; }

  /// True if the sets share at least one value.  O(1) digest
  /// rejection, then a merge over the sorted chunk keys; only chunks
  /// present in both sets compare blocks (word-parallel AND for
  /// bitmap×bitmap).
  bool intersects(const AddrSet &RHS) const;

  /// Number of shared values.  Same walk as \ref intersects with
  /// popcounts instead of early exit.
  size_t intersectCount(const AddrSet &RHS) const;

  /// Invokes \p F(Value) for every member in ascending order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t C = 0; C != Keys.size(); ++C) {
      const Value Base = Keys[C] << ChunkShift;
      const Block &B = Blocks[C];
      if (!B.IsBitmap) {
        for (unsigned I = 0; I != B.Count; ++I)
          F(Base + B.Small[I]);
      } else {
        for (unsigned W = 0; W != WordsPerChunk; ++W) {
          uint64_t Word = B.Words[W];
          while (Word != 0) {
            unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
            F(Base + 64 * W + Bit);
            Word &= Word - 1;
          }
        }
      }
    }
  }

  /// The members as a sorted, de-duplicated vector.
  std::vector<Value> toSorted() const;

  /// Block-shape counters (introspection for tests and benchmarks).
  struct Stats {
    size_t SmallBlocks = 0;
    size_t BitmapBlocks = 0;
  };
  Stats stats() const;

  bool operator==(const AddrSet &RHS) const;
  bool operator!=(const AddrSet &RHS) const { return !(*this == RHS); }

private:
  /// One chunk: either a sorted array of up to SmallMax 10-bit offsets
  /// or a 1024-bit bitmap.  The union makes both forms 128 bytes, so
  /// promotion/demotion rewrites the block in place.
  struct Block {
    uint16_t Count = 0;
    bool IsBitmap = false;
    union {
      uint16_t Small[SmallMax];
      uint64_t Words[WordsPerChunk];
    };
    Block() : Small{} {}
  };

  static bool blocksIntersect(const Block &A, const Block &B);
  static size_t blocksIntersectCount(const Block &A, const Block &B);
  static bool blockContains(const Block &B, uint16_t Off);

  /// Digest bit for \p V: top 6 bits of a Fibonacci-hash mix, so
  /// nearby addresses (the common case: consecutive heap offsets)
  /// spread over the whole digest.
  static uint64_t digestBit(Value V) {
    return 1ull << ((V * 0x9E3779B97F4A7C15ull) >> 58);
  }

  /// Index of the chunk holding key \p Key, or Keys.size() if absent.
  size_t findChunk(uint64_t Key) const;

  /// Rewrites small block \p B as a bitmap (Count unchanged).
  static void promote(Block &B);
  /// Rewrites bitmap block \p B as a small block; requires
  /// B.Count <= SmallMax.
  static void demote(Block &B);

  std::vector<uint64_t> Keys; ///< Sorted chunk keys.
  std::vector<Block> Blocks;  ///< Parallel to Keys.
  size_t NumValues = 0;
  uint64_t Digest = 0;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_ADDRSET_H
