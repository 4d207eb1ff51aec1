//===- record/RingBuffer.h - Lock-free recorder transport ------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-free transport layer of the recorder (the LD_PRELOAD shim
/// and runtime/Instrument.h): the raw per-operation record, a bounded
/// single-producer/single-consumer ring (one per recorded thread,
/// drained by the background flusher), and a fixed-capacity
/// address-interning table that maps pthread object addresses /
/// call-site return addresses (or named entries) to the dense ids the
/// v3 writer wants.
///
/// Everything here is wait-free on the producer fast path and must
/// stay allocation-free after construction: the producers are
/// interposed pthread calls, which may run inside malloc-hostile
/// contexts (thread teardown, early process init).  A full ring or a
/// full table never blocks the shim — the record is counted as dropped
/// and the program proceeds at native speed.
///
/// Memory-ordering contract: a producer publishes a record with a
/// release store of Tail after all interning stores; the flusher's
/// acquire load of Tail therefore observes every table entry any
/// drained record references (transitively, also entries interned by
/// other threads that the recording thread observed via the table's
/// release/acquire id handshake).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_RECORD_RINGBUFFER_H
#define PERFPLAY_RECORD_RINGBUFFER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfplay {
namespace record {

/// Sentinel for "no id" across the recorder's dense 32-bit ids (the
/// trace layer's InvalidId, redeclared here so this header stays
/// freestanding for the shim).
inline constexpr uint32_t InvalidRecId = 0xFFFFFFFFu;

/// What a recorded pthread operation was.  Deliberately coarser than
/// trace/Event.h's EventKind: the flusher re-derives the Event stream
/// (Compute deltas, the cond-wait release/re-acquire dance, synthetic
/// ThreadStart/ThreadEnd framing) from these plus its per-thread
/// translation state.
enum class RecOp : uint8_t {
  /// pthread_mutex_lock returned 0.
  MutexAcquire,
  /// pthread_rwlock_rdlock returned 0 (shared section).
  RwAcquireRead,
  /// pthread_rwlock_wrlock returned 0 (exclusive section).
  RwAcquireWrite,
  /// pthread_mutex_trylock / pthread_rwlock_try{rd,wr}lock attempt;
  /// success and mode live in RawRecord::Flags.
  TryAcquire,
  /// pthread_mutex_unlock / pthread_rwlock_unlock.
  Release,
  /// pthread_cond_wait / pthread_cond_timedwait returned (the mutex is
  /// held again).  Lock is the condvar, Lock2 the protecting mutex.
  CondWait,
  /// pthread_cond_signal.
  CondSignal,
  /// pthread_cond_broadcast.
  CondBroadcast,
  /// The recorded thread is exiting (pushed by the TLS destructor).
  ThreadEnd,
  /// The in-process recorder registered the thread at T0.
  ThreadStart,
  /// A SharedVar read or write, packed by accessRecord().
  Read,
  Write,
};

/// True for the ops whose Lock field is a lock-registry id.
inline bool carriesLock(RecOp Op) { return Op < RecOp::ThreadEnd; }

/// RawRecord::Flags bits.
inline constexpr uint8_t RecFlagTrySucceeded = 1u << 0;
inline constexpr uint8_t RecFlagShared = 1u << 1;

/// One recorded operation, sized for a cheap struct copy into the
/// ring.  Timestamps are raw CLOCK_MONOTONIC nanoseconds; the flusher
/// turns them into the Event clock's Compute deltas (wait time — the
/// span T0..T1 of a blocking acquire — is excluded).  Read/Write
/// records reuse the fields: see accessRecord().
struct RawRecord {
  RecOp Op = RecOp::Release;
  uint8_t Flags = 0;
  /// Dense lock-registry id (the condvar for CondWait/CondSignal).
  uint32_t Lock = InvalidRecId;
  /// CondWait only: the protecting mutex's lock-registry id.
  uint32_t Lock2 = InvalidRecId;
  /// Dense site-registry id, or InvalidRecId when unresolved.
  uint32_t Site = InvalidRecId;
  /// Operation start (wait begin for blocking acquires).
  uint64_t T0 = 0;
  /// Operation end (lock acquired / call returned).
  uint64_t T1 = 0;
};
static_assert(sizeof(RawRecord) == 32, "RawRecord must stay 32 bytes");

/// Packs a Read/Write of \p Addr: the 64-bit address across Lock (low
/// half) and Lock2 (high half), the value in T0, the timestamp in T1
/// and the WriteOpKind in Flags.
inline RawRecord accessRecord(RecOp Op, uint64_t Addr, uint64_t Value,
                              uint8_t Kind, uint64_t Ts) {
  RawRecord R;
  R.Op = Op;
  R.Flags = Kind;
  R.Lock = static_cast<uint32_t>(Addr);
  R.Lock2 = static_cast<uint32_t>(Addr >> 32);
  R.T0 = Value;
  R.T1 = Ts;
  return R;
}

/// The address accessRecord() packed into \p R.
inline uint64_t accessAddr(const RawRecord &R) {
  return static_cast<uint64_t>(R.Lock2) << 32 | R.Lock;
}

/// Bounded single-producer/single-consumer ring of RawRecords.  The
/// producer is the recorded thread, the consumer the flusher; both
/// sides are lock-free (one atomic load + one store each).  Capacity
/// is fixed at construction and rounded up to a power of two.
class SpscRing {
public:
  explicit SpscRing(size_t Capacity) {
    size_t Cap = 64;
    while (Cap < Capacity)
      Cap <<= 1;
    Slots.resize(Cap);
    Mask = Cap - 1;
  }

  /// Producer side.  Returns false (record dropped) when full.
  bool push(const RawRecord &R) {
    size_t T = Tail.load(std::memory_order_relaxed);
    if (T - Head.load(std::memory_order_acquire) == Slots.size())
      return false;
    Slots[T & Mask] = R;
    Tail.store(T + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: hands every pending record to \p Consume in push
  /// order and returns how many were drained.
  template <typename Fn> size_t drain(Fn &&Consume) {
    size_t H = Head.load(std::memory_order_relaxed);
    const size_t T = Tail.load(std::memory_order_acquire);
    size_t N = 0;
    for (; H != T; ++H, ++N)
      Consume(Slots[H & Mask]);
    Head.store(H, std::memory_order_release);
    return N;
  }

private:
  std::vector<RawRecord> Slots;
  size_t Mask = 0;
  alignas(64) std::atomic<size_t> Head{0};
  alignas(64) std::atomic<size_t> Tail{0};
};

/// Lock-free, fixed-capacity open-addressing map from an address (a
/// pthread object or a return address — never 0) to a dense id in
/// interning order, with a small metadata tag per entry.  Writers are
/// the recording threads; the single reader is the flusher, which
/// walks entries by id to register them with the v3 writer.
///
/// Publication protocol: the winner of the slot CAS takes the next id,
/// stores the tag, release-stores the address into the id-indexed
/// metadata array (its "ready" flag — addresses are never 0), and
/// finally release-stores the id into the slot for other producers.
/// The flusher spin-waits on the metadata address of any id it needs,
/// which is at most a few stores behind the count.
class AddrTable {
public:
  explicit AddrTable(size_t Capacity) {
    size_t Cap = 64;
    while (Cap < Capacity)
      Cap <<= 1;
    Slots = std::vector<Slot>(Cap);
    Meta = std::vector<Entry>(Cap);
    Mask = Cap - 1;
  }

  /// Interns \p Addr, returning its dense id, or InvalidRecId when the
  /// table is full (the caller drops the event).  \p Tag is stored on
  /// first interning and ignored afterwards.
  uint32_t intern(uintptr_t Addr, uint8_t Tag) {
    size_t H = hashAddr(Addr) & Mask;
    for (size_t Probe = 0; Probe <= Mask; ++Probe, H = (H + 1) & Mask) {
      Slot &S = Slots[H];
      uintptr_t Cur = S.Key.load(std::memory_order_acquire);
      if (Cur == 0) {
        uintptr_t Expected = 0;
        if (S.Key.compare_exchange_strong(Expected, Addr,
                                          std::memory_order_acq_rel)) {
          const uint32_t Id = Count.fetch_add(1, std::memory_order_relaxed);
          // Claimed slots never exceed the slot count, and Meta is
          // sized to match, so Id is always in range.
          Meta[Id].Tag.store(Tag, std::memory_order_relaxed);
          Meta[Id].Addr.store(Addr, std::memory_order_release);
          S.Id.store(Id, std::memory_order_release);
          return Id;
        }
        Cur = Expected;
      }
      if (Cur == Addr) {
        // Another producer owns the slot; its id store is at most a
        // few instructions behind the CAS.
        uint32_t Id;
        while ((Id = S.Id.load(std::memory_order_acquire)) == InvalidRecId) {
        }
        return Id;
      }
    }
    return InvalidRecId; // Table full.
  }

  /// Ids assigned so far.  An id observed through a drained record is
  /// always ready; intermediate ids may still be publishing — use
  /// entry() which waits for readiness.
  uint32_t count() const { return Count.load(std::memory_order_acquire); }

  /// Flusher side: address + tag of \p Id, spin-waiting the (tiny)
  /// window between the id assignment and the metadata publication.
  void entry(uint32_t Id, uintptr_t &Addr, uint8_t &Tag) const {
    uintptr_t A;
    while ((A = Meta[Id].Addr.load(std::memory_order_acquire)) == 0) {
    }
    Addr = A;
    Tag = Meta[Id].Tag.load(std::memory_order_relaxed);
  }

private:
  struct Slot {
    std::atomic<uintptr_t> Key{0};
    std::atomic<uint32_t> Id{InvalidRecId};
  };
  struct Entry {
    std::atomic<uintptr_t> Addr{0};
    std::atomic<uint8_t> Tag{0};
  };

  static size_t hashAddr(uintptr_t A) {
    // Fibonacci scrambling; pthread objects are pointer-aligned so the
    // low bits carry no entropy.
    uint64_t X = static_cast<uint64_t>(A) >> 4;
    X *= 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(X >> 32);
  }

  std::vector<Slot> Slots;
  std::vector<Entry> Meta;
  size_t Mask = 0;
  std::atomic<uint32_t> Count{0};
};

/// Lock-registry tags (AddrTable Tag byte): which pthread object kind
/// an address is, driving the synthesized lock names.
inline constexpr uint8_t LockTagMutex = 0;
inline constexpr uint8_t LockTagRwlock = 1;
inline constexpr uint8_t LockTagCond = 2;
/// Entries registered by name: the interned address is a NamedLock
/// (lock registry) or NamedSite (site registry, where return addresses
/// carry tag 0); see record/Flusher.h.
inline constexpr uint8_t LockTagNamed = 3;
inline constexpr uint8_t SiteTagNamed = 1;

/// Per-recorded-thread state: the ring plus the drop accounting the
/// acceptance gates read back.  Owned by RecordRuntime; the ring is
/// written only by the owning thread and drained only by the flusher.
struct ThreadState {
  explicit ThreadState(size_t RingCapacity) : Ring(RingCapacity) {}

  /// Dense trace thread id (registration order), set once when the
  /// state joins the registry.
  uint32_t Id = 0;
  SpscRing Ring;
  /// Hook invocations that tried to push a record.
  std::atomic<uint64_t> Attempts{0};
  /// Pushes refused (ring full or registry full).  Attempts ==
  /// records drained + Drops, exactly — the property test's invariant.
  std::atomic<uint64_t> Drops{0};
};

} // namespace record
} // namespace perfplay

#endif // PERFPLAY_RECORD_RINGBUFFER_H
