#ifndef AEETES_COMMON_MUTEX_H_
#define AEETES_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

namespace aeetes {

/// std::mutex wrapped as an annotated capability so clang's thread safety
/// analysis can check acquire/release balance and GUARDED_BY access
/// (DESIGN.md §12). Same cost as std::mutex — the wrapper is inlined away;
/// only the annotations differ. All new guarded state must use this type:
/// a raw std::mutex is invisible to the analysis.
class AEETES_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() AEETES_ACQUIRE() { mu_.lock(); }
  void Unlock() AEETES_RELEASE() { mu_.unlock(); }
  bool TryLock() AEETES_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over an aeetes::Mutex, annotated as a scoped capability so
/// holding one satisfies REQUIRES/GUARDED_BY on the locked mutex for the
/// rest of the scope.
class AEETES_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AEETES_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() AEETES_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with aeetes::Mutex. Wait requires the mutex
/// held and atomically releases/reacquires it around the block, exactly
/// like std::condition_variable — the adopt/release dance below hands the
/// already-held lock to the std wait without a second lock operation.
///
/// There is deliberately no predicate-taking Wait overload: the analysis
/// cannot see guarded accesses inside a predicate lambda (a lambda is a
/// separate function without a REQUIRES annotation), so callers write the
/// standard `while (!condition()) cv.Wait(mu);` loop inline, where every
/// guarded read is checked in the annotated context.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) AEETES_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the (reacquired) mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace aeetes

#endif  // AEETES_COMMON_MUTEX_H_
