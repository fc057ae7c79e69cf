#ifndef PPC_COMMON_THREAD_ANNOTATIONS_H_
#define PPC_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

/// Compile-time concurrency contracts.
///
/// This header is the project's single bridge between locking *practice*
/// and locking *proof*. It provides
///
///   1. the Clang capability-analysis attribute macros (`GUARDED_BY`,
///      `REQUIRES`, `EXCLUDES`, ...) in the style popularized by Abseil's
///      `absl/base/thread_annotations.h`, and
///   2. `ppc::Mutex` / `ppc::MutexLock` / `ppc::CondVar` — thin,
///      zero-overhead wrappers over the std primitives that carry those
///      attributes, so `clang++ -Wthread-safety -Werror=thread-safety`
///      can prove lock discipline on every build.
///
/// ## The contract
///
/// Every mutex in `src/` is a `ppc::Mutex` (the project linter,
/// `tools/lint/check_source.py`, rejects raw `std::mutex` & friends
/// outside this header), and every piece of state it protects is marked
/// `GUARDED_BY(that_mutex)`. Under Clang the analysis then enforces, at
/// compile time, on every translation unit:
///
///   * guarded state is only read or written while its mutex is held
///     (`GUARDED_BY` / `PT_GUARDED_BY`);
///   * `...Locked()` helpers are only called with the right mutex held
///     (`REQUIRES`), and lock-taking methods are never re-entered while
///     that mutex is already held — the self-deadlock class (`EXCLUDES`);
///   * scoped locks cannot leak: `MutexLock` is a `SCOPED_CAPABILITY`,
///     so forgetting that a path released (or failed to release) a lock
///     is a compile error, not a TSan roll of the dice.
///
/// GCC (and any compiler without `thread_safety` attributes) sees plain
/// `std::mutex` semantics: the macros expand to nothing and the wrappers
/// inline away. Runtime behavior is identical across compilers.
///
/// ## What the analysis cannot see
///
/// The analysis is per-function and lock-based. It does not model
///   * happens-before established by `std::thread::join` / atomics,
///   * a nested struct's field guarded by a mutex the struct cannot name
///     (e.g. `SessionRegistry::Entry::worker`, `ChannelTransport::Queue`),
///   * thread confinement (e.g. `EventLoop`'s loop-thread-only state),
///   * condition-variable wakeup correctness (it checks that `Wait` is
///     called with the mutex held, not that the predicate loop is right).
/// Such state keeps an explanatory comment instead of an annotation, and
/// TSan remains the dynamic backstop for it.
///
/// ## Idioms
///
/// ```
/// class Account {
///  public:
///   void Deposit(int amount) EXCLUDES(mutex_) {
///     MutexLock lock(mutex_);
///     balance_ += amount;  // OK: mutex_ held.
///   }
///   int BalanceLocked() const REQUIRES(mutex_) { return balance_; }
///  private:
///   mutable ppc::Mutex mutex_;
///   int balance_ GUARDED_BY(mutex_) = 0;
/// };
/// ```
///
/// Condition waits are written as explicit predicate loops in the caller
/// (not as predicate lambdas passed to `CondVar`), so the analysis can
/// see that the guarded predicate state is read under the lock:
///
/// ```
/// MutexLock lock(mutex_);
/// while (queue_.empty() && !stopping_) not_empty_.Wait(mutex_);
/// ```

// -- Attribute macros -------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define PPC_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PPC_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Declares a class to be a lockable capability ("mutex").
#define CAPABILITY(x) PPC_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define SCOPED_CAPABILITY PPC_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define GUARDED_BY(x) PPC_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define PT_GUARDED_BY(x) PPC_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function precondition: the listed capabilities are held by the caller
/// (and still held on return).
#define REQUIRES(...) \
  PPC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  PPC_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (constructor of a scoped
/// lock, or Lock()).
#define ACQUIRE(...) PPC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  PPC_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the listed capabilities (destructor of a scoped
/// lock, or Unlock()).
#define RELEASE(...) PPC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  PPC_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function attempts the acquisition; the first argument is the return
/// value meaning "acquired".
#define TRY_ACQUIRE(...) \
  PPC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held — the
/// annotation that turns the self-deadlock (re-entering a lock-taking
/// method under its own lock) into a compile error.
#define EXCLUDES(...) PPC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Declares that a function returns a reference to the capability
/// protecting its result.
#define RETURN_CAPABILITY(x) PPC_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining which out-of-band mechanism (join,
/// thread confinement, ...) provides the synchronization.
#define NO_THREAD_SAFETY_ANALYSIS \
  PPC_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Capability ordering documentation: `x` must be acquired before/after
/// the annotated mutex.
#define ACQUIRED_BEFORE(...) \
  PPC_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  PPC_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

namespace ppc {

class CondVar;

/// Annotated exclusive mutex. Same storage and cost as the `std::mutex`
/// it wraps; exists so the capability attributes have a class to hang
/// off (the std type cannot be annotated).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a `ppc::Mutex`. A scoped capability: the analysis
/// proves it is released on every path out of the scope. `Unlock`/`Lock`
/// support the drop-the-lock-around-work pattern (e.g. running a task
/// between scheduler bookkeeping sections) without giving up the proof.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mutex_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex (to run work that must not hold it).
  void Unlock() RELEASE() {
    mutex_.Unlock();
    held_ = false;
  }

  /// Re-acquires after `Unlock`.
  void Lock() ACQUIRE() {
    mutex_.Lock();
    held_ = true;
  }

 private:
  Mutex& mutex_;
  bool held_ = true;
};

/// Annotated condition variable for `ppc::Mutex`.
///
/// Deliberately has no predicate-lambda overloads: the analysis cannot
/// see into a lambda that the attribute system has not annotated, so
/// predicates over guarded state would dodge the proof. Callers write
/// the standard explicit loop instead (see the header comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, waits, and re-acquires it. `mutex`
  /// must be the one guarding the predicate state, held by the caller.
  void Wait(Mutex& mutex) REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // The caller's scope still owns the mutex.
  }

  /// As `Wait`, giving up at `deadline`.
  std::cv_status WaitUntil(Mutex& mutex,
                           std::chrono::steady_clock::time_point deadline)
      REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ppc

#endif  // PPC_COMMON_THREAD_ANNOTATIONS_H_
