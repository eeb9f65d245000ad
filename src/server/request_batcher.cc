#include "src/server/request_batcher.h"

#include <algorithm>
#include <utility>

#include "src/common/stopwatch.h"

namespace aeetes {
namespace server {

RequestBatcher::RequestBatcher(MetricsRegistry& registry, Options options)
    : options_(options),
      batches_(registry.GetOrRegisterCounter(
          "server.batches", "Coalesced extract batches dispatched")),
      batch_size_(registry.GetOrRegisterHistogram(
          "server.batch_size", "Documents per coalesced extract batch")),
      batch_latency_us_(registry.GetOrRegisterHistogram(
          "server.batch_latency_us",
          "Wall time of one batch (encode + parallel extract)")),
      queue_wait_us_(registry.GetOrRegisterHistogram(
          "server.stage.queue_wait_us",
          "Per extract request: Submit to the dispatch of its batch")),
      fanout_us_(registry.GetOrRegisterHistogram(
          "server.stage.fanout_us",
          "Per extract request: its batch's encode + extract on the pool")) {
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

RequestBatcher::~RequestBatcher() { Drain(); }

Status RequestBatcher::Submit(Job job) {
  job.submitted_us = clock_.ElapsedMicros();
  {
    MutexLock lock(mu_);
    if (draining_) {
      return Status::FailedPrecondition("server is draining");
    }
    if (queue_.size() >= options_.max_queue_jobs) {
      return Status::ResourceExhausted("extract queue full");
    }
    queue_.push_back(std::move(job));
  }
  cv_.NotifyOne();
  return Status::OK();
}

void RequestBatcher::Drain() {
  {
    MutexLock lock(mu_);
    if (draining_ && !dispatcher_.joinable()) return;
    draining_ = true;
  }
  cv_.NotifyAll();
  if (dispatcher_.joinable()) dispatcher_.join();
}

size_t RequestBatcher::queued() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void RequestBatcher::DispatchLoop() {
  while (true) {
    std::vector<Job> taken;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !draining_) cv_.Wait(mu_);
      if (queue_.empty() && draining_) return;
      taken.swap(queue_);
    }
    // Group everything taken this wake-up by (engine, tau) and run each
    // group as one batch. Grouping is stable, so a submitter's documents
    // keep their relative order.
    while (!taken.empty()) {
      std::vector<Job> group;
      group.push_back(std::move(taken.front()));
      const ServingEngine* engine = group.front().engine.get();
      const double tau = group.front().tau;
      std::vector<Job> rest;
      rest.reserve(taken.size() - 1);
      for (size_t i = 1; i < taken.size(); ++i) {
        Job& job = taken[i];
        if (job.engine.get() == engine && job.tau == tau) {
          group.push_back(std::move(job));
        } else {
          rest.push_back(std::move(job));
        }
      }
      taken.swap(rest);
      RunGroup(std::move(group));
    }
  }
}

void RequestBatcher::RunGroup(std::vector<Job> group) {
  ScopedTimer timer(&batch_latency_us_);
  const int64_t dispatched_us = clock_.ElapsedMicros();
  const ServingEngine& engine = *group.front().engine;
  const double tau = group.front().tau;

  // One text list for the whole group; each job's docs keep their count
  // (the strings are moved out, not erased).
  size_t total_docs = 0;
  for (const Job& job : group) total_docs += job.docs.size();
  batches_.Increment();
  batch_size_.Record(total_docs);
  std::vector<std::string> texts;
  texts.reserve(total_docs);
  for (Job& job : group) {
    queue_wait_us_.Record(
        static_cast<uint64_t>(dispatched_us - job.submitted_us));
    for (std::string& text : job.docs) texts.push_back(std::move(text));
  }

  Stopwatch fanout;
  Result<TextExtraction> extraction =
      engine.extractor->ExtractTexts(texts, tau);
  const auto fanout_us = static_cast<uint64_t>(fanout.ElapsedMicros());
  for (size_t j = 0; j < group.size(); ++j) fanout_us_.Record(fanout_us);
  if (!extraction.ok()) {
    for (Job& job : group) job.done(extraction.status());
    return;
  }

  // Fan per-document results back out to their submitters, renumbering
  // document indices to be job-relative.
  std::vector<DocumentExtraction>& per_document =
      extraction->extraction.per_document;
  size_t cursor = 0;
  for (Job& job : group) {
    Outcome outcome;
    outcome.documents.reserve(job.docs.size());
    outcome.results.reserve(job.docs.size());
    for (size_t d = 0; d < job.docs.size(); ++d) {
      outcome.documents.push_back(
          std::move(extraction->documents[cursor]));
      DocumentExtraction result = std::move(per_document[cursor]);
      result.doc = static_cast<uint32_t>(d);
      outcome.results.push_back(std::move(result));
      ++cursor;
    }
    job.done(std::move(outcome));
  }
}

}  // namespace server
}  // namespace aeetes
