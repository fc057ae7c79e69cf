#ifndef PPC_COMMON_CANCELLATION_H_
#define PPC_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace ppc {

/// Cooperative cancellation + deadline handle shared by everything that
/// can block on a session's behalf: the schedule executors check it
/// between steps, blocking receives park on it, and
/// `SessionRegistry::CancelSession` trips it to reclaim a wedged worker.
///
/// Semantics:
///   * `Cancel(reason)` is sticky and first-caller-wins: the first
///     non-OK reason is the one every later `Check()` reports.
///   * `ArmDeadline(ms)` sets an absolute steady-clock deadline `ms`
///     from now (0 = no deadline). Once it passes, `Check()` returns
///     `kDeadlineExceeded` — the token needs no watcher thread: a
///     blocked waiter sleeps no later than `deadline()`.
///   * `Check()` is cheap on the happy path (two relaxed atomic loads)
///     so it is safe to call per schedule step and per receive wake.
///   * A blocked waiter registers a `Waker` for as long as it is parked.
///     `Cancel` and `SetDeadline` run every registered waker, so the
///     waiter re-checks at once instead of sleeping until a timeout.
///
/// Thread-safe. The token is plain shared state: the owner keeps it
/// alive for the duration of the run (parties and transports only hold
/// `const CancelToken*`).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Registers `wake` with a token for the Waker's lifetime (a null
  /// token registers nothing). `wake` runs on the cancelling thread,
  /// under the token's waker lock: it may take the waiter's own lock, so
  /// the waiter must construct the Waker before taking that lock and
  /// destroy it after releasing it. Destruction waits out a running
  /// `wake`, so whatever `wake` captures only has to outlive the Waker.
  class Waker {
   public:
    Waker(const CancelToken* token, std::function<void()> wake)
        : token_(token), wake_(std::move(wake)) {
      if (token_ == nullptr) return;
      MutexLock lock(token_->wakers_mutex_);
      next_ = token_->wakers_;
      if (next_ != nullptr) next_->prev_ = this;
      token_->wakers_ = this;
    }
    ~Waker() {
      if (token_ == nullptr) return;
      MutexLock lock(token_->wakers_mutex_);
      if (prev_ != nullptr) {
        prev_->next_ = next_;
      } else {
        token_->wakers_ = next_;
      }
      if (next_ != nullptr) next_->prev_ = prev_;
    }
    Waker(const Waker&) = delete;
    Waker& operator=(const Waker&) = delete;

   private:
    friend class CancelToken;
    const CancelToken* token_;
    std::function<void()> wake_;
    // Intrusive list links, guarded by token_->wakers_mutex_.
    Waker* prev_ = nullptr;
    Waker* next_ = nullptr;
  };

  /// Arms an absolute deadline `deadline_ms` milliseconds from now.
  /// `deadline_ms == 0` means "no deadline" and leaves the token as-is.
  void ArmDeadline(uint64_t deadline_ms) EXCLUDES(wakers_mutex_) {
    if (deadline_ms == 0) return;
    SetDeadline(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(deadline_ms));
  }

  /// Sets an absolute steady-clock deadline.
  void SetDeadline(std::chrono::steady_clock::time_point deadline)
      EXCLUDES(wakers_mutex_) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
    WakeAll();  // Parked waiters re-aim their timed wait.
  }

  bool HasDeadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != kNoDeadline;
  }

  /// The armed deadline; only meaningful when `HasDeadline()`.
  std::chrono::steady_clock::time_point deadline() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            deadline_ns_.load(std::memory_order_acquire)));
  }

  /// Trips the token. The first non-OK `reason` wins; later calls are
  /// no-ops. An OK `reason` is coerced to a generic cancellation error so
  /// a tripped token can never report success.
  void Cancel(Status reason) EXCLUDES(reason_mutex_, wakers_mutex_) {
    if (reason.ok()) {
      reason = Status::DeadlineExceeded("cancelled");
    }
    {
      MutexLock lock(reason_mutex_);
      if (!reason_set_) {
        reason_ = std::move(reason);
        reason_set_ = true;
      }
    }
    cancelled_.store(true, std::memory_order_release);
    WakeAll();
  }

  bool Cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// OK while the token is untripped and within deadline; the sticky
  /// cancellation reason once `Cancel` ran; `kDeadlineExceeded` once the
  /// armed deadline passed.
  Status Check() const EXCLUDES(reason_mutex_) {
    if (cancelled_.load(std::memory_order_acquire)) {
      MutexLock lock(reason_mutex_);
      return reason_;
    }
    const int64_t deadline_ns = deadline_ns_.load(std::memory_order_acquire);
    if (deadline_ns != kNoDeadline &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline_ns) {
      return Status::DeadlineExceeded("session deadline exceeded");
    }
    return Status::OK();
  }

 private:
  /// Runs every registered waker. Called after the state change it
  /// announces is published, so a waiter that registers later sees the
  /// change on its own re-check and none is missed.
  void WakeAll() const EXCLUDES(wakers_mutex_) {
    MutexLock lock(wakers_mutex_);
    for (Waker* waker = wakers_; waker != nullptr; waker = waker->next_) {
      waker->wake_();
    }
  }

  static constexpr int64_t kNoDeadline =
      std::numeric_limits<int64_t>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
  mutable Mutex reason_mutex_;
  Status reason_ GUARDED_BY(reason_mutex_);
  bool reason_set_ GUARDED_BY(reason_mutex_) = false;
  mutable Mutex wakers_mutex_;
  mutable Waker* wakers_ GUARDED_BY(wakers_mutex_) = nullptr;
};

}  // namespace ppc

#endif  // PPC_COMMON_CANCELLATION_H_
