#ifndef AEETES_RUNTIME_THREAD_POOL_H_
#define AEETES_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_annotations.h"

namespace aeetes {

/// Fixed-capacity Chase–Lev work-stealing deque. The owning worker pushes
/// and pops at the bottom (LIFO, cache-warm); any other thread steals from
/// the top (FIFO, oldest first). Elements are owning raw pointers so the
/// ring slots can be plain relaxed atomics; the synchronizing accesses are
/// the seq_cst operations on `top_`/`bottom_` (the conservative ordering of
/// the original Chase–Lev paper — deliberately not the fence-based
/// weak-memory variant, because standalone fences are the one atomics
/// feature ThreadSanitizer models poorly, and the tsan preset is the proof
/// obligation for this subsystem).
///
/// Capacity is fixed at construction (no growth): Push reports failure
/// when full and the caller keeps the task elsewhere. Only the owner may
/// call Push/Pop; Steal is safe from any thread.
class WorkStealingDeque {
 public:
  using Task = std::function<void()>;

  /// Capacity is rounded up to a power of two, minimum 64 slots.
  explicit WorkStealingDeque(size_t capacity);

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only. False when the ring is full (the task is NOT consumed).
  bool Push(Task* task);

  /// Owner only. Nullptr when empty.
  Task* Pop();

  /// Any thread. Nullptr when empty or when the steal lost a race (the
  /// contended task is guaranteed to be executed by whoever won).
  Task* Steal();

  /// Approximate (racy) emptiness — monitoring/tests only.
  [[nodiscard]] bool Empty() const;

  [[nodiscard]] size_t capacity() const { return buffer_.size(); }

 private:
  std::vector<std::atomic<Task*>> buffer_;
  size_t mask_ = 0;
  // Top/bottom never wrap in practice (64-bit counters); signed so the
  // transient bottom < top state during a contended Pop stays well-defined.
  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
};

struct ThreadPoolOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  size_t num_threads = 0;
  /// Bound on queued-but-unclaimed tasks. Submit blocks once the bound is
  /// reached (backpressure), so a producer enumerating millions of
  /// documents cannot balloon memory ahead of the workers.
  size_t queue_capacity = 1024;
};

/// Fixed-size work-stealing thread pool.
///
/// Shape: external producers Submit into one bounded mutex-guarded
/// injection queue; a worker that runs dry refills from it in a batch,
/// keeping one task and publishing the rest on its own Chase–Lev deque,
/// where sibling workers steal from the top. Batching amortizes the
/// injection-queue lock; stealing rebalances skewed batches. Workers park
/// on a condition variable when every queue they can see is empty.
///
/// Contract (matching the library's no-exceptions style):
///  - tasks must not throw; errors are communicated through whatever state
///    the task closure writes (see ParallelExtractor for the pattern);
///  - Submit blocks while the injection queue is full and fails with
///    FailedPrecondition after Shutdown;
///  - Shutdown drains every queued task, then joins the workers; the
///    destructor calls it implicitly when the owner did not.
class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// `kNotAWorker` from CurrentWorkerIndex for non-pool threads.
  static constexpr size_t kNotAWorker = std::numeric_limits<size_t>::max();

  static Result<std::unique_ptr<ThreadPool>> Create(
      const ThreadPoolOptions& options = {});

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task, blocking while the injection queue is at capacity.
  Status Submit(Task task) AEETES_EXCLUDES(mu_);

  /// Non-blocking Submit: kResourceExhausted when the queue is full.
  Status TrySubmit(Task task) AEETES_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished. Safe to call
  /// repeatedly and from multiple threads; must not be called from a
  /// worker (a task waiting for all tasks deadlocks by construction).
  void WaitIdle() AEETES_EXCLUDES(mu_);

  /// Stops accepting tasks, drains the queues, joins the workers. The
  /// second call reports FailedPrecondition.
  Status Shutdown() AEETES_EXCLUDES(mu_);

  [[nodiscard]] size_t num_threads() const { return workers_.size(); }

  /// Index in [0, num_threads()) when called from one of this pool's
  /// workers, kNotAWorker otherwise. Lets per-worker state (stats
  /// accumulators, trace recorders) be indexed without synchronization.
  [[nodiscard]] size_t CurrentWorkerIndex() const;

  /// Monitoring snapshot. Counts are pool-lifetime totals; `queue_depth`
  /// is an instantaneous sample of the injection queue; busy fractions are
  /// each worker's task-execution time over the pool's lifetime so far.
  struct Stats {
    size_t num_threads = 0;
    uint64_t submitted = 0;   // tasks accepted into the injection queue
    uint64_t executed = 0;    // tasks run to completion
    uint64_t steals = 0;      // successful cross-worker steals
    size_t queue_depth = 0;   // injection queue length right now
    std::vector<double> worker_busy_fraction;  // [0,1] per worker
  };
  [[nodiscard]] Stats GetStats() const AEETES_EXCLUDES(mu_);

  /// Publishes GetStats() as `runtime.pool.*` and `runtime.worker.<i>.*`
  /// gauges (busy fractions as parts-per-million ints). Registration is
  /// idempotent, so callers republish after every run.
  void PublishMetrics(MetricsRegistry& registry) const AEETES_EXCLUDES(mu_);

 private:
  explicit ThreadPool(const ThreadPoolOptions& options);

  void WorkerLoop(size_t index) AEETES_EXCLUDES(mu_);

  /// Lock-free part of the hunt: own deque, then one steal sweep.
  Task* PopOrSteal(size_t index);

  /// Moves up to `refill_batch_` tasks out of the injection queue: the
  /// first is returned, the rest go onto worker `index`'s deque; bumps
  /// `signal_` and wakes peers when it published stealable work.
  Task* RefillLocked(size_t index) AEETES_REQUIRES(mu_);

  void FinishTask() AEETES_EXCLUDES(mu_);

  ThreadPoolOptions options_;
  size_t refill_batch_ = 1;

  /// Deque ownership: slot i's Push/Pop side belongs exclusively to worker
  /// thread i (enforced by construction — only WorkerLoop(i) touches it);
  /// Steal is safe from any thread. The deques themselves synchronize via
  /// their internal atomics, so they are deliberately not GUARDED_BY(mu_).
  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;
  std::vector<std::thread> workers_;

  /// Mutable so const monitoring (GetStats) can sample the queue depth.
  mutable Mutex mu_;
  CondVar cv_work_;   // workers park here
  CondVar cv_space_;  // blocked Submit callers park here
  CondVar cv_idle_;   // WaitIdle callers park here
  std::deque<Task*> injection_ AEETES_GUARDED_BY(mu_);
  /// Bumped once per batch of published work so parked workers can tell a
  /// wakeup with new stealable deque entries from a spurious one.
  uint64_t signal_ AEETES_GUARDED_BY(mu_) = 0;
  bool stop_ AEETES_GUARDED_BY(mu_) = false;

  /// Submitted-but-unfinished tasks (atomic so FinishTask stays lock-free
  /// until the count hits zero).
  std::atomic<uint64_t> pending_{0};

  /// Lifetime stats (relaxed atomics: one add per task on each, dwarfed by
  /// the task bodies themselves). Busy clocks are cache-line separated so
  /// workers never share a stats line.
  struct alignas(64) WorkerClock {
    std::atomic<uint64_t> busy_us{0};
  };
  std::vector<WorkerClock> worker_clocks_;
  Stopwatch lifetime_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> steals_{0};
};

}  // namespace aeetes

#endif  // AEETES_RUNTIME_THREAD_POOL_H_
