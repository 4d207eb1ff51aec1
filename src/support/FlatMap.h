//===- support/FlatMap.h - Open-addressing hash map -------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal open-addressing (linear probing) hash map for integral
/// keys, used where std::map's node allocations would dominate the
/// detection and transform passes: CsIndex::build's and the windowed
/// detector's first-access folds of the slots' initial values, RULE
/// 1's lock-local verdict memo.  Insert-only
/// (no erase; clear() empties the map but keeps its slots), contiguous
/// storage, power-of-two capacity.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_FLATMAP_H
#define PERFPLAY_SUPPORT_FLATMAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfplay {

/// SplitMix64 finalizer: a cheap, well-mixed hash for integral keys.
inline uint64_t hashInteger(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Insert-only open-addressing hash map from an integral \p KeyT to
/// \p ValueT.  Equality is content equality (key sets and their values),
/// independent of insertion order.
template <typename KeyT, typename ValueT> class FlatMap {
public:
  size_t size() const { return NumUsed; }
  bool empty() const { return NumUsed == 0; }
  /// Number of slots; grows by doubling and never shrinks.
  size_t capacity() const { return Slots.size(); }

  /// Removes every entry but keeps the slot capacity, so refilling the
  /// map to a similar size does not reallocate.
  void clear() {
    for (Slot &S : Slots)
      S.Used = false;
    NumUsed = 0;
  }

  /// Pointer to the value of \p Key, or nullptr when absent.
  const ValueT *find(KeyT Key) const {
    if (Slots.empty())
      return nullptr;
    size_t I = slotOf(Key);
    while (Slots[I].Used) {
      if (Slots[I].Key == Key)
        return &Slots[I].Value;
      I = (I + 1) & (Slots.size() - 1);
    }
    return nullptr;
  }

  /// Reference to the value of \p Key, default-constructed on first use.
  ValueT &operator[](KeyT Key) {
    growIfNeeded();
    size_t I = slotOf(Key);
    while (Slots[I].Used) {
      if (Slots[I].Key == Key)
        return Slots[I].Value;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I].Used = true;
    Slots[I].Key = Key;
    Slots[I].Value = ValueT();
    ++NumUsed;
    return Slots[I].Value;
  }

  /// Inserts {Key, Value} if absent.  Returns true when newly inserted.
  bool insert(KeyT Key, ValueT Value) {
    growIfNeeded();
    size_t I = slotOf(Key);
    while (Slots[I].Used) {
      if (Slots[I].Key == Key)
        return false;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I].Used = true;
    Slots[I].Key = Key;
    Slots[I].Value = Value;
    ++NumUsed;
    return true;
  }

  /// Calls Fn(Key, Value) for every entry, in unspecified order.
  template <typename Fn> void forEach(Fn F) const {
    for (const Slot &S : Slots)
      if (S.Used)
        F(S.Key, S.Value);
  }

  bool operator==(const FlatMap &RHS) const {
    if (NumUsed != RHS.NumUsed)
      return false;
    for (const Slot &S : Slots) {
      if (!S.Used)
        continue;
      const ValueT *Other = RHS.find(S.Key);
      if (!Other || !(*Other == S.Value))
        return false;
    }
    return true;
  }

  bool operator!=(const FlatMap &RHS) const { return !(*this == RHS); }

private:
  struct Slot {
    KeyT Key = KeyT();
    ValueT Value = ValueT();
    bool Used = false;
  };

  size_t slotOf(KeyT Key) const {
    return static_cast<size_t>(hashInteger(static_cast<uint64_t>(Key))) &
           (Slots.size() - 1);
  }

  void growIfNeeded() {
    if (Slots.empty())
      rehash(16);
    else if (NumUsed * 4 >= Slots.size() * 3)
      rehash(Slots.size() * 2);
  }

  void rehash(size_t NewCapacity) {
    std::vector<Slot> Old;
    Old.swap(Slots);
    Slots.resize(NewCapacity);
    for (Slot &S : Old) {
      if (!S.Used)
        continue;
      size_t I = slotOf(S.Key);
      while (Slots[I].Used)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = std::move(S);
    }
  }

  std::vector<Slot> Slots;
  size_t NumUsed = 0;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_FLATMAP_H
