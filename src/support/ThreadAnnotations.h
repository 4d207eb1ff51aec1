//===- support/ThreadAnnotations.h - Clang TSA-annotated locks --*- C++ -*-===//
//
// Part of the PerfPlay reproduction of "On Performance Debugging of
// Unnecessary Lock Contentions on Multicore Processors" (CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Capability-annotated synchronization primitives for Clang Thread
/// Safety Analysis (-Wthread-safety), plus the attribute macros the
/// rest of the codebase uses to declare its locking contracts.
///
/// Every mutex, condition variable and lock guard in the concurrent
/// layers (core/Engine batch fan-out, the serve daemon,
/// runtime/Recorder) goes through these wrappers so the
/// clang CI lane can prove, at compile time, that
///
///  * every GUARDED_BY member is only touched with its mutex held,
///  * every REQUIRES function is only called with the right locks,
///  * scoped guards release exactly what they acquired.
///
/// On GCC (or any compiler without the attributes) the macros expand
/// to nothing and the wrappers compile down to the underlying std
/// primitives — zero overhead, identical behavior.
///
/// Conventions (enforced in review + the clang -Werror lane):
///  * Data members protected by a lock carry GUARDED_BY(TheMutex).
///  * Functions expecting a lock held carry REQUIRES(TheMutex).
///  * Public entry points that take a lock internally carry
///    EXCLUDES(TheMutex) so self-deadlock is a compile error.
///  * The rare deliberate exemptions (e.g. the recorder's fork
///    handlers, which hold a lock across prepare/parent/child
///    callbacks the analysis cannot pair) are marked
///    NO_THREAD_SAFETY_ANALYSIS with a comment justifying them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFPLAY_SUPPORT_THREADANNOTATIONS_H
#define PERFPLAY_SUPPORT_THREADANNOTATIONS_H

#include <chrono>
#include <condition_variable>
#include <mutex>

// -- Attribute macros --------------------------------------------------------
//
// The standard Clang Thread Safety Analysis vocabulary
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).  Guarded by
// __has_attribute so GCC, MSVC and older clangs compile them away.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PERFPLAY_TSA(x) __attribute__((x))
#endif
#endif
#ifndef PERFPLAY_TSA
#define PERFPLAY_TSA(x) // no-op outside clang
#endif

/// Declares a class to be a lockable capability ("mutex" by role).
#define CAPABILITY(x) PERFPLAY_TSA(capability(x))
/// Declares an RAII class whose lifetime holds a capability.
#define SCOPED_CAPABILITY PERFPLAY_TSA(scoped_lockable)
/// Data member readable/writable only with \p x held.
#define GUARDED_BY(x) PERFPLAY_TSA(guarded_by(x))
/// Pointer member whose pointee is protected by \p x.
#define PT_GUARDED_BY(x) PERFPLAY_TSA(pt_guarded_by(x))
/// Lock-ordering edges: this capability is acquired before/after the
/// listed ones, so an inversion is a compile-time diagnostic.
#define ACQUIRED_BEFORE(...) PERFPLAY_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PERFPLAY_TSA(acquired_after(__VA_ARGS__))
/// Caller must hold the listed capabilities (exclusively / shared).
#define REQUIRES(...) PERFPLAY_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...)                                                 \
  PERFPLAY_TSA(requires_shared_capability(__VA_ARGS__))
/// Function acquires the listed capabilities and returns holding them.
#define ACQUIRE(...) PERFPLAY_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) PERFPLAY_TSA(acquire_shared_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define RELEASE(...) PERFPLAY_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) PERFPLAY_TSA(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) PERFPLAY_TSA(release_generic_capability(__VA_ARGS__))
/// Function attempts the acquisition; first argument is the success
/// return value.
#define TRY_ACQUIRE(...) PERFPLAY_TSA(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...)                                              \
  PERFPLAY_TSA(try_acquire_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the listed capabilities (self-deadlock guard
/// for entry points that acquire them internally).
#define EXCLUDES(...) PERFPLAY_TSA(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held; teaches the analysis
/// a fact it cannot derive (e.g. after an adopt).
#define ASSERT_CAPABILITY(x) PERFPLAY_TSA(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) PERFPLAY_TSA(assert_shared_capability(x))
/// Function returns a reference to the capability guarding its result.
#define RETURN_CAPABILITY(x) PERFPLAY_TSA(lock_returned(x))
/// Opt-out for deliberate, documented exemptions only.
#define NO_THREAD_SAFETY_ANALYSIS PERFPLAY_TSA(no_thread_safety_analysis)

namespace perfplay {

/// An annotated std::mutex.  Prefer MutexLock over manual
/// lock()/unlock() pairs; the manual form exists for adoption into
/// std guards and for the analysis-visible primitives themselves.
class CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() ACQUIRE() { Mu.lock(); }
  void unlock() RELEASE() { Mu.unlock(); }
  bool tryLock() TRY_ACQUIRE(true) { return Mu.try_lock(); }

  /// Declares (to the analysis and to readers) that the calling
  /// context holds this mutex when that fact arrived through a channel
  /// the analysis cannot see.  Compiles to nothing.
  void assertHeld() const ASSERT_CAPABILITY(this) {}

private:
  friend class CondVar;
  std::mutex Mu;
};

/// RAII exclusive lock over a Mutex — the annotated replacement for
/// std::lock_guard<std::mutex> (which the analysis cannot see
/// through).
class SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &M) ACQUIRE(M) : M(M) { M.lock(); }
  ~MutexLock() RELEASE() { M.unlock(); }

  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;

private:
  Mutex &M;
};

/// An annotated condition variable over Mutex.
///
/// wait() takes the Mutex it atomically releases/reacquires and is
/// REQUIRES-annotated, so waiting without the lock held is a compile
/// error.  There is deliberately no predicate overload: the idiomatic
/// caller shape is an explicit
///
///   MutexLock Lock(Mu);
///   while (!condition)        // condition reads GUARDED_BY(Mu) state
///     Cv.wait(Mu);
///
/// loop, which keeps the predicate's guarded reads inside a scope the
/// analysis verifies (a predicate lambda would be analyzed as an
/// unannotated function and reported as unguarded access).
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  /// Blocks until notified.  \p M must be held; it is released for
  /// the duration of the sleep and held again on return (which the
  /// analysis models as "still held across the call" — the transient
  /// release is invisible to it, exactly like std::condition_variable).
  void wait(Mutex &M) REQUIRES(M) {
    std::unique_lock<std::mutex> Inner(M.Mu, std::adopt_lock);
    Cv.wait(Inner);
    Inner.release(); // Ownership stays with the caller's guard.
  }

  /// Blocks until notified or \p Timeout elapses, whichever comes
  /// first (the record-flusher's periodic-drain idiom: sleep one
  /// interval, wake early on shutdown).  Same locking contract as
  /// wait(); spurious wakeups are possible, so callers re-check their
  /// guarded condition either way.
  void waitFor(Mutex &M, std::chrono::milliseconds Timeout) REQUIRES(M) {
    std::unique_lock<std::mutex> Inner(M.Mu, std::adopt_lock);
    Cv.wait_for(Inner, Timeout);
    Inner.release(); // Ownership stays with the caller's guard.
  }

  void notifyOne() { Cv.notify_one(); }
  void notifyAll() { Cv.notify_all(); }

private:
  std::condition_variable Cv;
};

} // namespace perfplay

#endif // PERFPLAY_SUPPORT_THREADANNOTATIONS_H
