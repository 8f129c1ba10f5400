// Annotated locking primitives: the only mutex vocabulary library code is
// allowed to use (tools/rsat_lint.py rule `bare-mutex`).
//
// A bare std::mutex is invisible to Clang's thread-safety analysis — a
// field "guarded" by one is guarded by convention only. These wrappers
// carry the capability attributes (support/thread_annotations.hpp), so
// under `-Wthread-safety -Werror` the compiler proves that every
// RSAT_GUARDED_BY field is only touched under its mutex and that every
// RSAT_REQUIRES / RSAT_EXCLUDES contract is honored at every call site.
//
//   Mutex      — std::mutex as a capability.
//   LockGuard  — scoped acquire/release (std::lock_guard shape).
//   UniqueLock — scoped acquire/release that CondVar can wait on.
//   CondVar    — std::condition_variable over a UniqueLock. There is no
//                predicate-lambda overload on purpose: the analysis cannot
//                see that a closure runs under the caller's lock, so
//                guarded reads inside a predicate lambda are warnings.
//                Write explicit `while (!cond) cv.wait(lock);` loops — the
//                reads stay in the annotated function body where the
//                capability is provably held.
//
// The wrapper bodies manipulate the raw std::mutex the analysis cannot
// model, so they are the one sanctioned home of
// RSAT_NO_THREAD_SAFETY_ANALYSIS; their *declarations* carry the full
// acquire/release contracts callers are checked against.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "support/thread_annotations.hpp"

namespace rs::support {

class CondVar;

/// std::mutex as a Clang thread-safety capability.
class RSAT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RSAT_ACQUIRE() RSAT_NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() RSAT_RELEASE() RSAT_NO_THREAD_SAFETY_ANALYSIS {
    mu_.unlock();
  }
  bool try_lock() RSAT_TRY_ACQUIRE(true) RSAT_NO_THREAD_SAFETY_ANALYSIS {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;  // waits on the raw mutex while the capability is held
  std::mutex mu_;
};

/// Scoped acquire-in-constructor / release-in-destructor (std::lock_guard
/// with the scoped-capability attributes).
class RSAT_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) RSAT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() RSAT_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped acquire/release, like LockGuard, and the handle CondVar waits
/// require (CondVar releases and re-acquires the raw mutex inside a wait).
class RSAT_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) RSAT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~UniqueLock() RSAT_RELEASE() { mu_.unlock(); }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

/// Condition variable over a UniqueLock that must be held at every wait.
/// No predicate overloads — see the header comment for why wait loops are
/// written out explicitly in annotated code.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lk`, waits, and re-acquires before returning.
  /// `lk` must be held. The analysis models the capability as held across
  /// the wait — the standard (sound) fiction for condition variables: the
  /// caller's guarded reads on either side of the wait do happen under
  /// the lock.
  void wait(UniqueLock& lk) RSAT_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> raw(lk.mu_.mu_, std::adopt_lock);
    cv_.wait(raw);
    raw.release();  // relock happened inside wait; ownership stays with lk
  }

  /// wait() with a timeout; returns std::cv_status::timeout on expiry.
  std::cv_status wait_for(UniqueLock& lk, std::chrono::nanoseconds rel)
      RSAT_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> raw(lk.mu_.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(raw, rel);
    raw.release();
    return status;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rs::support
