//===- trace/Trace.h - Recorded execution trace ------------------*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Trace container: per-thread event streams plus the side tables a
/// replay needs — code sites, lock metadata, the recorded per-lock grant
/// schedule that ELSC enforces (Section 5.2), and, for transformed
/// traces, lockset definitions (RULE 3) and partial-order constraints
/// (RULE 2).
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_TRACE_TRACE_H
#define PERFPLAY_TRACE_TRACE_H

#include "support/Span.h"
#include "support/StringPool.h"
#include "trace/Event.h"

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

namespace perfplay {

/// Static source location of a critical section's code region.  Names
/// are pooled: File/Function are handles into the owning
/// Trace::Names interner (Trace::siteFile / Trace::siteFunction
/// resolve them), so comparing two sites' names is an integer compare
/// and parsing a site allocates no per-name storage.
struct CodeSite {
  StringId File = InvalidStringId;
  StringId Function = InvalidStringId;
  uint32_t BeginLine = 0;
  uint32_t EndLine = 0;
};

/// Metadata of one lock.  Spin locks burn CPU while waiting (the paper's
/// "resource wasting"); blocking locks idle.  Name is a handle into the
/// owning Trace::Names pool (resolve with Trace::lockName).
struct LockInfo {
  StringId Name = InvalidStringId;
  bool IsSpin = false;
};

/// Reference to the \p Index-th critical section (in program order) of
/// thread \p Thread.  Nested critical sections are numbered by their
/// opening LockAcquire.
struct CsRef {
  ThreadId Thread = InvalidId;
  uint32_t Index = InvalidId;

  bool valid() const { return Thread != InvalidId; }
  bool operator==(const CsRef &RHS) const {
    return Thread == RHS.Thread && Index == RHS.Index;
  }
};

/// One lock inside a lockset, remembering which critical section the
/// lock protects against.  The dynamic locking strategy (Figure 9) skips
/// acquiring Lock once SourceCs has finished at replay time.
struct LocksetEntry {
  LockId Lock = InvalidId;
  /// Global id of the source critical section contributing this lock,
  /// or InvalidId for the node's own auxiliary lock.
  uint32_t SourceCs = InvalidId;

  bool operator==(const LocksetEntry &RHS) const {
    return Lock == RHS.Lock && SourceCs == RHS.SourceCs;
  }
};

/// RULE 3 lockset: the set of locks a transformed critical section must
/// hold.  Two transformed critical sections are mutually exclusive iff
/// their locksets intersect (RULE 4).  An empty lockset encodes a
/// removed lock/unlock pair (null-locks and standalone nodes).
///
/// This owning form is what callers build one lockset in; a Trace
/// stores its locksets flat, in a LocksetTable.
struct Lockset {
  std::vector<LocksetEntry> Entries;
};

/// Read view of one lockset inside a LocksetTable.  Valid while the
/// table lives and is not appended to.
struct LocksetView {
  Span<LocksetEntry> Entries;
};

/// Every lockset of a trace in one entry array: lockset Id owns
/// Entries[Ends[Id - 1], Ends[Id]) (from 0 for Id 0).  A ULCP-free
/// trace has one lockset per critical section, so the table is two
/// allocations, not one vector per section.
class LocksetTable {
public:
  /// Number of locksets.
  size_t size() const { return Ends.size(); }
  bool empty() const { return Ends.empty(); }

  LocksetView operator[](LocksetId Id) const {
    assert(Id < Ends.size() && "lockset id out of range");
    uint32_t Begin = Id == 0 ? 0 : Ends[Id - 1];
    return LocksetView{Span<LocksetEntry>(Entries.data() + Begin,
                                          Entries.data() + Ends[Id])};
  }

  /// Every entry of every lockset, in lockset order.
  Span<LocksetEntry> entries() const {
    return Span<LocksetEntry>(Entries.data(), Entries.size());
  }

  /// Room for \p NumLocksets locksets holding \p NumEntries entries
  /// in all.
  void reserve(size_t NumLocksets, size_t NumEntries) {
    Ends.reserve(NumLocksets);
    Entries.reserve(NumEntries);
  }

  /// Appends one entry to the lockset under construction; the lockset
  /// is not visible until closeLockset().
  void addEntry(LocksetEntry E) { Entries.push_back(E); }

  /// Closes the lockset under construction (possibly empty) and
  /// returns its id.
  LocksetId closeLockset() {
    Ends.push_back(static_cast<uint32_t>(Entries.size()));
    return static_cast<LocksetId>(Ends.size() - 1);
  }

  /// Appends a copy of \p LS.
  void push_back(const Lockset &LS) {
    Entries.insert(Entries.end(), LS.Entries.begin(), LS.Entries.end());
    closeLockset();
  }

  bool operator==(const LocksetTable &RHS) const {
    return Ends == RHS.Ends && Entries == RHS.Entries;
  }

private:
  std::vector<LocksetEntry> Entries;
  /// One past each lockset's last entry in Entries.
  std::vector<uint32_t> Ends;
};

/// RULE 2 constraint: the critical section \p Before must be granted its
/// lock(s) no later than \p After, preserving the original partial order
/// of causal-edge nodes.  Ids are global critical-section ids (see
/// Trace::globalCsId).
struct OrderConstraint {
  uint32_t Before = InvalidId;
  uint32_t After = InvalidId;
};

/// Event stream of one thread.
struct ThreadTrace {
  std::vector<Event> Events;
};

/// A recorded (or transformed) execution trace.
///
/// Thread ids are dense indices into Threads.  Global critical-section
/// ids enumerate critical sections thread-major: all of thread 0's
/// critical sections first (in program order), then thread 1's, etc.
class Trace {
public:
  std::vector<ThreadTrace> Threads;
  std::vector<CodeSite> Sites;
  std::vector<LockInfo> Locks;

  /// The interner backing every name in this trace (lock names, site
  /// files/functions).  Views handed out by the accessors below point
  /// into the pool's arena and stay valid when the Trace is moved.
  /// Copying a Trace copies the pool (see support/StringPool.h).
  StringPool Names;

  /// Interns \p S into this trace's pool (owned storage).
  StringId intern(std::string_view S) { return Names.intern(S); }

  /// Resolves a pooled name; InvalidStringId yields "".
  std::string_view name(StringId Id) const { return Names.str(Id); }

  /// Name of lock \p L.
  std::string_view lockName(LockId L) const {
    return Names.str(Locks[L].Name);
  }

  /// Source file of code site \p S.
  std::string_view siteFile(CodeSiteId S) const {
    return Names.str(Sites[S].File);
  }

  /// Function of code site \p S.
  std::string_view siteFunction(CodeSiteId S) const {
    return Names.str(Sites[S].Function);
  }

  /// Transformed-trace side tables (empty in freshly recorded traces).
  LocksetTable Locksets;
  std::vector<OrderConstraint> Constraints;

  /// Recorded grant schedule: for each lock, the order in which critical
  /// sections were granted that lock in the recorded run.  This is the
  /// total order ELSC re-enforces on every replay.
  std::vector<std::vector<CsRef>> LockSchedule;

  /// Number of threads.
  unsigned numThreads() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// Total number of events across all threads.
  size_t numEvents() const;

  /// Total number of critical sections (section-opening events: mutex
  /// and rwlock acquires plus successful trylocks; see isSectionOpen).
  /// O(1) once the CS index is built (buildCsIndex/installCsIndex),
  /// otherwise an O(events) scan.
  size_t numCriticalSections() const;

  /// Number of critical sections in thread \p T.
  uint32_t numCriticalSections(ThreadId T) const;

  /// Maps (thread, per-thread CS index) to a dense global CS id.
  /// Requires buildCsIndex() to have been called after the last
  /// mutation of Threads.
  uint32_t globalCsId(CsRef Ref) const;

  /// Inverse of globalCsId().  O(threads).
  CsRef csRefOf(uint32_t GlobalId) const;

  /// Global id of thread \p T's first critical section: its sections
  /// are [firstGlobalCsId(T), firstGlobalCsId(T + 1)) (see
  /// globalCsId), and firstGlobalCsId(numThreads()) is the total.
  uint32_t firstGlobalCsId(ThreadId T) const {
    assert(T < CsPrefix.size() && "buildCsIndex() not called");
    return CsPrefix[T];
  }

  /// (Re)computes the per-thread CS counts backing globalCsId().
  void buildCsIndex();

  /// Installs the per-thread CS counts backing globalCsId() from
  /// counts the caller already has, skipping buildCsIndex()'s
  /// O(events) rescan.  The v3 loader aggregates these from the chunk
  /// directory's per-chunk acquire counts, each verified against the
  /// decoded stream — so the index is exact, at O(threads) cost.  \p CountPerThread must have one entry per thread.
  void installCsIndex(std::vector<uint32_t> CountPerThread);

  /// Structural validation: every thread stream starts with ThreadStart,
  /// ends with ThreadEnd, lock acquire/release nest properly (LIFO per
  /// thread), released locks were held, referenced sites/locks/locksets
  /// exist, and constraints reference existing critical sections.
  ///
  /// \returns an empty string when valid, otherwise a diagnostic.
  std::string validate() const;

private:
  /// numCriticalSections() by scanning every event.
  size_t countCriticalSections() const;

  /// Prefix sums of per-thread CS counts; CsPrefix[T] is the global id
  /// of thread T's first critical section.
  std::vector<uint32_t> CsPrefix;
  std::vector<uint32_t> CsCount;
};

} // namespace perfplay

#endif // PERFPLAY_TRACE_TRACE_H
