#ifndef AEETES_SERVER_REQUEST_BATCHER_H_
#define AEETES_SERVER_REQUEST_BATCHER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/core/document.h"
#include "src/server/collection_manager.h"

namespace aeetes {
namespace server {

/// Coalesces queued extract requests into batches and runs them on the
/// target engine's ParallelExtractor (ISSUE 8 tentpole #2). One dispatcher
/// thread drains the queue: everything queued at wake-up that shares
/// (engine, tau, strategy) becomes a single ExtractAll call, so many small
/// requests ride one fan-out over the PR-3 pool instead of paying per-
/// request submission overhead. Per-document results return to each
/// submitter in its original document order. Documents are encoded on
/// the dispatcher thread, then extracted on the pool; both are const on
/// the engine.
///
/// Each job pins its engine via shared_ptr: a swap or delete between
/// submit and dispatch retires the old engine only after the batch that
/// holds it completes.
class RequestBatcher {
 public:
  struct Options {
    /// Jobs the queue will hold before Submit sheds load
    /// (ResourceExhausted — surfaced as a 429-style rejection).
    size_t max_queue_jobs = 1024;
  };

  /// Everything produced for one job, in the job's document order. The
  /// Documents keep their original text, so response builders can slice
  /// matched substrings back out via Document::SubstringText.
  struct Outcome {
    std::vector<Document> documents;
    std::vector<DocumentExtraction> results;  // parallel to documents
  };
  using DoneFn = std::function<void(Result<Outcome>)>;

  struct Job {
    std::shared_ptr<const ServingEngine> engine;
    std::vector<std::string> docs;
    double tau = 0.8;
    FilterStrategy strategy = FilterStrategy::kLazy;
    bool has_strategy = false;  // false -> engine's configured default
    DoneFn done;
  };

  /// Registers `server.batch*` metrics into `registry` and starts the
  /// dispatcher thread.
  RequestBatcher(MetricsRegistry& registry, Options options);
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Enqueues one job; `job.done` fires exactly once, on the dispatcher
  /// thread, unless Submit itself returns non-OK (queue full / draining —
  /// then `done` is NOT called and the caller answers directly).
  Status Submit(Job job) AEETES_EXCLUDES(mu_);

  /// Stops accepting, drains everything already queued, joins the
  /// dispatcher. Idempotent; called by the destructor.
  void Drain() AEETES_EXCLUDES(mu_);

  size_t queued() const AEETES_EXCLUDES(mu_);

 private:
  void DispatchLoop() AEETES_EXCLUDES(mu_);
  /// Runs one group of jobs that share (engine, tau, strategy) as a
  /// single encode + ExtractAll pass, then fans results back out.
  void RunGroup(std::vector<Job> group);

  Options options_;
  Counter& batches_;
  Histogram& batch_size_;
  Histogram& batch_latency_us_;

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<Job> queue_ AEETES_GUARDED_BY(mu_);
  bool draining_ AEETES_GUARDED_BY(mu_) = false;
  std::thread dispatcher_;
};

}  // namespace server
}  // namespace aeetes

#endif  // AEETES_SERVER_REQUEST_BATCHER_H_
