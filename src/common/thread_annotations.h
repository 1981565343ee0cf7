// Compile-time concurrency discipline: Clang Thread Safety Analysis
// attribute macros plus annotated synchronization primitives.
//
// Every mutex-protected class in src/ declares its locks as
// common::Mutex / common::SharedMutex and tags the state they protect
// with GUARDED_BY(mutex_), helper methods that expect the lock with
// REQUIRES(mutex_), and public entry points that must not be called
// with the lock held with EXCLUDES(mutex_). Under Clang (the `analyze`
// CMake preset: -Wthread-safety -Werror) wrong lock scopes are build
// errors; under other compilers the macros expand to nothing and the
// wrappers are zero-cost shims over the std primitives.
//
// The invariant linter (tools/lint/check_invariants.py) enforces that
// src/ never declares a raw std::mutex / std::shared_mutex outside this
// header, so the annotations stay enforceable everywhere.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/deadlock_detector.h"
#include "common/lock_rank.h"

#ifdef ASTERIX_MODEL_CHECK
#include "common/model_check.h"
#endif

// Deadlock-detector plumbing. When ASTERIX_DEADLOCK_DETECTOR is compiled
// in, every Lock/TryLock/Unlock (and the RAII guards) captures the
// caller's std::source_location and reports the acquisition to
// common::DeadlockDetector — guarded by one relaxed atomic load when the
// detector is disarmed. When compiled out, the parameters and hooks
// vanish entirely and the wrappers are the same zero-cost shims as
// before.
#ifdef ASTERIX_DEADLOCK_DETECTOR
#define ASTERIX_DD_ARG0 \
  const std::source_location& asterix_dd_loc = std::source_location::current()
#define ASTERIX_DD_ARGN \
  , const std::source_location& asterix_dd_loc = std::source_location::current()
#define ASTERIX_DD_FWD asterix_dd_loc
#define ASTERIX_DD_ON_ACQUIRE(rank)                                   \
  do {                                                                \
    if (::asterix::common::DeadlockDetector::Armed())                 \
      ::asterix::common::DeadlockDetector::OnAcquire((rank),          \
                                                     asterix_dd_loc); \
  } while (0)
#define ASTERIX_DD_ON_TRY(rank, acquired)                                \
  do {                                                                   \
    if ((acquired) && ::asterix::common::DeadlockDetector::Armed())      \
      ::asterix::common::DeadlockDetector::OnTryAcquire((rank),          \
                                                        asterix_dd_loc); \
  } while (0)
#define ASTERIX_DD_ON_RELEASE(rank)                        \
  do {                                                     \
    if (::asterix::common::DeadlockDetector::Armed())      \
      ::asterix::common::DeadlockDetector::OnRelease(rank); \
  } while (0)
#else
#define ASTERIX_DD_ARG0
#define ASTERIX_DD_ARGN
#define ASTERIX_DD_FWD
#define ASTERIX_DD_ON_ACQUIRE(rank) ((void)0)
#define ASTERIX_DD_ON_TRY(rank, acquired) ((void)0)
#define ASTERIX_DD_ON_RELEASE(rank) ((void)0)
#endif

#if defined(__clang__) && !defined(SWIG)
#define ASTERIX_TSA_ATTR(x) __attribute__((x))
#else
#define ASTERIX_TSA_ATTR(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) ASTERIX_TSA_ATTR(capability(x))
#define SCOPED_CAPABILITY ASTERIX_TSA_ATTR(scoped_lockable)
#define GUARDED_BY(x) ASTERIX_TSA_ATTR(guarded_by(x))
#define PT_GUARDED_BY(x) ASTERIX_TSA_ATTR(pt_guarded_by(x))
#define REQUIRES(...) ASTERIX_TSA_ATTR(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  ASTERIX_TSA_ATTR(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) ASTERIX_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  ASTERIX_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) ASTERIX_TSA_ATTR(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  ASTERIX_TSA_ATTR(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  ASTERIX_TSA_ATTR(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) ASTERIX_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  ASTERIX_TSA_ATTR(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) ASTERIX_TSA_ATTR(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) ASTERIX_TSA_ATTR(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  ASTERIX_TSA_ATTR(assert_shared_capability(x))

// Model-build destructor escape hatch. A destructor that issues checker
// hooks (MutexLock's unlock, MemLease's release) can park its thread in
// the scheduler; if the execution is aborted while parked, the hook
// raises the teardown exception — which must be able to propagate
// through the destructor. Destructors are implicitly noexcept, so model
// builds explicitly open them up; production builds keep the default.
#ifdef ASTERIX_MODEL_CHECK
#define ASTERIX_MC_MAY_THROW noexcept(false)
#else
#define ASTERIX_MC_MAY_THROW
#endif
#define RETURN_CAPABILITY(x) ASTERIX_TSA_ATTR(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS ASTERIX_TSA_ATTR(no_thread_safety_analysis)

namespace asterix {
namespace common {

class CondVar;

/// std::mutex with Thread Safety Analysis capability annotations and a
/// LockRank for the runtime lock-order checker (common/lock_rank.h).
/// Non-reentrant. Prefer the MutexLock guard over manual Lock/Unlock.
///
/// Every Mutex in src/ must name its rank (the LOCK-RANK lint enforces
/// it): `Mutex mu_{LockRank::kSubscriberQueue};`. The default kUnranked
/// constructor exists for tests and examples only.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(ASTERIX_DD_ARG0) ACQUIRE() {
    ASTERIX_DD_ON_ACQUIRE(rank_);
#ifdef ASTERIX_MODEL_CHECK
    if (mc::Active()) {
      mc::HookMutexLock(this);
      model_locked_ = true;
      return;
    }
#endif
    mu_.lock();
  }
  void Unlock() RELEASE() {
#ifdef ASTERIX_MODEL_CHECK
    // Matched against the path Lock() took, NOT mc::Active() now: an
    // execution abort unwinds RAII guards after the checker detaches,
    // and unlocking the never-locked std::mutex would be UB.
    if (model_locked_) {
      model_locked_ = false;
      if (mc::Active()) mc::HookMutexUnlock(this);
      ASTERIX_DD_ON_RELEASE(rank_);
      return;
    }
#endif
    mu_.unlock();
    ASTERIX_DD_ON_RELEASE(rank_);
  }
  bool TryLock(ASTERIX_DD_ARG0) TRY_ACQUIRE(true) {
#ifdef ASTERIX_MODEL_CHECK
    if (mc::Active()) {
      // No modeled try-lock: nothing on the checked data plane uses it.
      // Treat as a blocking acquire so a stray call stays sound.
      mc::HookMutexLock(this);
      model_locked_ = true;
      return true;
    }
#endif
    bool acquired = mu_.try_lock();
    ASTERIX_DD_ON_TRY(rank_, acquired);
    return acquired;
  }

  /// Tells the analysis the lock is already held (runtime no-op), for the
  /// rare callback that is documented to run under a lock the analysis
  /// cannot see being taken.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
#ifdef ASTERIX_MODEL_CHECK
  bool model_locked_ = false;  // single-threaded under the scheduler
#endif
};

/// std::shared_mutex with capability annotations: exclusive writers,
/// shared readers.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LockRank rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock(ASTERIX_DD_ARG0) ACQUIRE() {
    ASTERIX_DD_ON_ACQUIRE(rank_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    ASTERIX_DD_ON_RELEASE(rank_);
  }
  bool TryLock(ASTERIX_DD_ARG0) TRY_ACQUIRE(true) {
    bool acquired = mu_.try_lock();
    ASTERIX_DD_ON_TRY(rank_, acquired);
    return acquired;
  }

  // Shared acquisitions obey the same rank discipline: a reader blocked
  // behind a writer deadlocks exactly like an exclusive waiter.
  void LockShared(ASTERIX_DD_ARG0) ACQUIRE_SHARED() {
    ASTERIX_DD_ON_ACQUIRE(rank_);
    mu_.lock_shared();
  }
  void UnlockShared() RELEASE_SHARED() {
    mu_.unlock_shared();
    ASTERIX_DD_ON_RELEASE(rank_);
  }
  bool TryLockShared(ASTERIX_DD_ARG0) TRY_ACQUIRE_SHARED(true) {
    bool acquired = mu_.try_lock_shared();
    ASTERIX_DD_ON_TRY(rank_, acquired);
    return acquired;
  }

  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
};

/// RAII exclusive lock over Mutex — the annotated std::lock_guard.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu ASTERIX_DD_ARGN) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock(ASTERIX_DD_FWD);
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() ASTERIX_MC_MAY_THROW RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

/// RAII exclusive lock over SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu ASTERIX_DD_ARGN) ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(ASTERIX_DD_FWD);
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu ASTERIX_DD_ARGN)
      ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared(ASTERIX_DD_FWD);
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() RELEASE() { mu_.UnlockShared(); }

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with common::Mutex. Wait() et al. must be
/// called with the mutex held (the annotation enforces it); internally
/// they adopt the held std::mutex so the plain std::condition_variable
/// fast path is preserved — no condition_variable_any overhead.
///
/// Like std::condition_variable, waits can wake spuriously; prefer the
/// predicate overloads.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
#ifdef ASTERIX_MODEL_CHECK
    if (mc::Active()) {
      (void)mc::HookCvWait(this, &mu, /*timed=*/false, {});
      return;
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the mutex
  }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
#ifdef ASTERIX_MODEL_CHECK
    if (mc::Active()) {
      while (!pred()) (void)mc::HookCvWait(this, &mu, /*timed=*/false, {});
      return;
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
#ifdef ASTERIX_MODEL_CHECK
    if (mc::Active()) {
      bool woken = mc::HookCvWait(
          this, &mu, /*timed=*/true,
          std::chrono::duration_cast<std::chrono::nanoseconds>(timeout));
      return woken ? std::cv_status::no_timeout : std::cv_status::timeout;
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  /// Returns pred() — false means the wait timed out with the predicate
  /// still unsatisfied.
  template <typename Rep, typename Period, typename Predicate>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Predicate pred) REQUIRES(mu) {
#ifdef ASTERIX_MODEL_CHECK
    if (mc::Active()) {
      while (!pred()) {
        if (!mc::HookCvWait(
                this, &mu, /*timed=*/true,
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    timeout))) {
          return pred();
        }
      }
      return true;
    }
#endif
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return satisfied;
  }

  void NotifyOne() {
#ifdef ASTERIX_MODEL_CHECK
    // Modeled as NotifyAll: woken waiters re-check their condition, so
    // over-waking explores a superset of behaviours (sound for safety
    // properties; it cannot mask a lost wakeup).
    if (mc::Active()) {
      mc::HookCvNotifyAll(this);
      return;
    }
#endif
    cv_.notify_one();
  }
  void NotifyAll() {
#ifdef ASTERIX_MODEL_CHECK
    if (mc::Active()) {
      mc::HookCvNotifyAll(this);
      return;
    }
#endif
    cv_.notify_all();
  }

 private:
  std::condition_variable cv_;
};

}  // namespace common
}  // namespace asterix
