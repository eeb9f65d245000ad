#include "src/runtime/parallel_extractor.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/similarity.h"

namespace aeetes {

namespace {

/// The verifier's output order — chunk merges restore exactly this order
/// so chunked results are byte-identical to an unchunked Extract.
bool MatchBefore(const Match& a, const Match& b) {
  if (a.token_begin != b.token_begin) return a.token_begin < b.token_begin;
  if (a.token_len != b.token_len) return a.token_len < b.token_len;
  return a.entity < b.entity;
}

Status CheckThreshold(double tau) {
  if (!(tau > 0.0) || tau > 1.0) {
    return Status::InvalidArgument("threshold must be in (0, 1]");
  }
  return Status::OK();
}

}  // namespace

size_t ParallelExtractor::MaxWindowTokens(double tau) const {
  const DerivedDictionary& dd = aeetes_.derived_dictionary();
  return SubstringLengthBounds(aeetes_.options().metric, dd.min_set_size(),
                               dd.max_set_size(), tau)
      .hi;
}

std::vector<std::pair<size_t, size_t>> ParallelExtractor::ChunkLayout(
    size_t num_tokens, double tau) const {
  AEETES_CHECK_GT(tau, 0.0) << "threshold must be in (0, 1]";
  AEETES_CHECK_LE(tau, 1.0) << "threshold must be in (0, 1]";
  std::vector<std::pair<size_t, size_t>> out;
  const size_t limit = options_.max_document_tokens;
  const size_t max_window = MaxWindowTokens(tau);
  // A limit shorter than the longest admissible window cannot contain
  // every boundary-straddling match, so such documents run whole.
  if (limit == 0 || num_tokens <= limit || max_window == 0 ||
      max_window > limit) {
    out.emplace_back(size_t{0}, num_tokens);
    return out;
  }
  // Chunk starts sit `stride` apart so adjacent chunks share
  // `max_window - 1` tokens: any window of at most `max_window` tokens
  // beginning at b lies entirely within the chunk starting at
  // floor(b / stride) * stride (or within the final chunk).
  const size_t overlap = max_window - 1;
  const size_t stride = limit - overlap;  // >= 1 since max_window <= limit
  for (size_t start = 0;; start += stride) {
    out.emplace_back(start, std::min(limit, num_tokens - start));
    if (start + limit >= num_tokens) break;
  }
  return out;
}

Result<std::unique_ptr<ParallelExtractor>> ParallelExtractor::Create(
    const Aeetes& aeetes, const ParallelExtractorOptions& options) {
  ThreadPoolOptions pool_options;
  pool_options.num_threads = options.num_threads;
  pool_options.queue_capacity = options.queue_capacity;
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<ThreadPool> pool,
                          ThreadPool::Create(pool_options));
  return std::unique_ptr<ParallelExtractor>(
      new ParallelExtractor(aeetes, options, std::move(pool)));
}

Result<ParallelExtraction> ParallelExtractor::ExtractAll(
    Span<Document> documents, double tau) {
  AEETES_RETURN_IF_ERROR(CheckThreshold(tau));
  ParallelExtraction out;
  out.per_document.resize(documents.size());
  if (documents.empty()) return out;

  // Plan: one task per chunk, doc-major, so every document's chunks are a
  // contiguous task range and the merge below is a single ordered pass.
  struct ChunkTask {
    size_t doc = 0;
    size_t begin = 0;
    size_t len = 0;
  };
  std::vector<ChunkTask> tasks;
  std::vector<std::pair<size_t, size_t>> doc_tasks(documents.size());
  for (size_t i = 0; i < documents.size(); ++i) {
    const auto layout = ChunkLayout(documents[i].size(), tau);
    doc_tasks[i] = {tasks.size(), layout.size()};
    for (const auto& [begin, len] : layout) {
      tasks.push_back(ChunkTask{i, begin, len});
    }
  }

  // Each task writes only its own slot; per-worker aggregates live in
  // padded slots indexed by the pool's worker id, so the hot path needs
  // no locks and no atomics beyond what Extract already does.
  struct ChunkSlot {
    std::vector<Match> matches;
    FilterStats filter_stats;
    VerifyStats verify_stats;
    Status status;
  };
  std::vector<ChunkSlot> slots(tasks.size());

  struct alignas(64) WorkerStats {
    FilterStats filter;
    VerifyStats verify;
  };
  std::vector<WorkerStats> worker_stats(pool_->num_threads());
  std::vector<TraceRecorder> traces(
      options_.collect_traces ? pool_->num_threads() : 0);

  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    // Submit applies backpressure: it blocks once queue_capacity tasks are
    // waiting, so planning a huge corpus cannot outrun the workers.
    Status submitted = pool_->Submit([this, documents, &tasks, &slots,
                                      &worker_stats, &traces, ti, tau] {
      const ChunkTask& task = tasks[ti];
      ChunkSlot& slot = slots[ti];
      const size_t w = pool_->CurrentWorkerIndex();
      AEETES_CHECK_NE(w, ThreadPool::kNotAWorker);
      TraceRecorder* trace = traces.empty() ? nullptr : &traces[w];
      const Document& doc = documents[task.doc];
      ExtractScratch& scratch = scratches_[w].scratch;

      Result<Aeetes::ExtractionSummary> result = [&] {
        if (task.begin == 0 && task.len == doc.size()) {
          return aeetes_.ExtractInto(scratch, doc, tau, trace);
        }
        const Document chunk = doc.Slice(task.begin, task.len);
        auto chunk_result = aeetes_.ExtractInto(scratch, chunk, tau, trace);
        if (chunk_result.ok()) {
          for (Match& m : scratch.matches) {
            m.token_begin =
                static_cast<uint32_t>(m.token_begin + task.begin);
          }
        }
        return chunk_result;
      }();

      if (!result.ok()) {
        slot.status = result.status();
        return;
      }
      // The scratch is recycled by this worker's next task, so the slot
      // takes a copy of the matches (the one per-task allocation left).
      slot.matches.assign(scratch.matches.begin(), scratch.matches.end());
      slot.filter_stats = result->filter_stats;
      slot.verify_stats = result->verify_stats;
      worker_stats[w].filter += result->filter_stats;
      worker_stats[w].verify += result->verify_stats;
    });
    if (!submitted.ok()) {
      pool_->WaitIdle();  // tasks already in flight borrow our locals
      return submitted;
    }
  }
  pool_->WaitIdle();

  // Deterministic error reporting: the first failed chunk in (doc, chunk)
  // order wins, independent of completion order.
  for (const ChunkSlot& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }

  // Merge in document order. Single-chunk documents move straight
  // through; split documents concatenate their chunks, restore the
  // verifier's (begin, len, entity) order, and drop boundary duplicates
  // (scores agree, so which copy survives is immaterial).
  for (size_t i = 0; i < documents.size(); ++i) {
    const auto [first, count] = doc_tasks[i];
    DocumentExtraction& de = out.per_document[i];
    de.doc = static_cast<uint32_t>(i);
    de.chunks = static_cast<uint32_t>(count);
    if (count == 1) {
      de.matches = std::move(slots[first].matches);
      de.filter_stats = slots[first].filter_stats;
      de.verify_stats = slots[first].verify_stats;
    } else {
      size_t total = 0;
      for (size_t c = 0; c < count; ++c) {
        total += slots[first + c].matches.size();
      }
      de.matches.reserve(total);
      for (size_t c = 0; c < count; ++c) {
        ChunkSlot& slot = slots[first + c];
        de.matches.insert(de.matches.end(), slot.matches.begin(),
                          slot.matches.end());
        de.filter_stats += slot.filter_stats;
        de.verify_stats += slot.verify_stats;
      }
      std::sort(de.matches.begin(), de.matches.end(), MatchBefore);
      de.matches.erase(std::unique(de.matches.begin(), de.matches.end()),
                       de.matches.end());
    }
    out.total_matches += de.matches.size();
  }

  // Aggregate stats: per-worker accumulators merged with the existing
  // operator+= — uint64 sums commute, so the totals are identical for
  // every thread count and schedule.
  for (const WorkerStats& ws : worker_stats) {
    out.filter_stats += ws.filter;
    out.verify_stats += ws.verify;
  }
  out.worker_traces = std::move(traces);
  // Fresh `runtime.*` gauges after every run; gauges (not counters) so the
  // counters-only determinism comparison across thread counts stays exact.
  PublishRuntimeMetrics();
  return out;
}

Result<TextExtraction> ParallelExtractor::ExtractTexts(Span<std::string> texts,
                                                       double tau) {
  AEETES_RETURN_IF_ERROR(CheckThreshold(tau));
  TextExtraction out;
  out.documents.resize(texts.size());
  // Encoding pass: one task per text, each writing only its own Document.
  // The chunk plan needs every document's length, so extraction starts
  // once the pass is done.
  for (size_t i = 0; i < texts.size(); ++i) {
    Status submitted = pool_->Submit([this, texts, &out, i] {
      out.documents[i] = aeetes_.EncodeDocument(texts[i]);
    });
    if (!submitted.ok()) {
      pool_->WaitIdle();  // tasks already in flight borrow our locals
      return submitted;
    }
  }
  pool_->WaitIdle();
  AEETES_ASSIGN_OR_RETURN(out.extraction, ExtractAll(out.documents, tau));
  return out;
}

}  // namespace aeetes
