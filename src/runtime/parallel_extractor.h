#ifndef AEETES_RUNTIME_PARALLEL_EXTRACTOR_H_
#define AEETES_RUNTIME_PARALLEL_EXTRACTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/common/status.h"
#include "src/core/aeetes.h"
#include "src/runtime/thread_pool.h"

namespace aeetes {

struct ParallelExtractorOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  size_t num_threads = 0;
  /// Bound on queued-but-unclaimed extraction tasks (ThreadPool
  /// backpressure): ExtractAll blocks submitting past this bound instead
  /// of materializing one task per document up front.
  size_t queue_capacity = 1024;
  /// Oversized-document mode: documents longer than this many tokens are
  /// split into chunks of exactly this length whose starts are
  /// `max_document_tokens - (max_window_len - 1)` apart, i.e. adjacent
  /// chunks overlap by one token less than the longest window the
  /// threshold admits, so every possible match lies entirely inside at
  /// least one chunk; boundary duplicates are deduplicated during the
  /// merge. Chunks of one document extract in parallel. 0 disables
  /// splitting. A limit smaller than the maximum window length cannot
  /// split soundly and is ignored for that call (the document runs whole).
  size_t max_document_tokens = 0;
  /// When true, every worker records the span trees of the Extract calls
  /// it ran into its own TraceRecorder (returned per worker — documents
  /// appear in completion order within a worker's recorder, so this is a
  /// profiling view, not a deterministic artifact).
  bool collect_traces = false;
};

/// Extraction results for one document, in document order.
struct DocumentExtraction {
  uint32_t doc = 0;
  std::vector<Match> matches;  // sorted by (begin, len, entity)
  FilterStats filter_stats;
  VerifyStats verify_stats;
  /// Chunks the document was split into (1 = ran whole).
  uint32_t chunks = 1;
};

/// Result of a parallel corpus run. `per_document` is indexed by document
/// and byte-identical to a sequential Extract loop over the same
/// documents, for every thread count (see DESIGN.md §9 for the ordering /
/// merge guarantees); the aggregate stats are the per-worker accumulators
/// merged with FilterStats/VerifyStats::operator+=.
struct ParallelExtraction {
  std::vector<DocumentExtraction> per_document;
  FilterStats filter_stats;
  VerifyStats verify_stats;
  uint64_t total_matches = 0;
  /// One recorder per worker when ParallelExtractorOptions::collect_traces
  /// was set; empty otherwise.
  std::vector<TraceRecorder> worker_traces;
};

/// Result of a run over raw texts: the Documents the pool encoded, in text
/// order, and their extraction. The Documents keep their original text, so
/// callers can slice matched substrings back out (Document::SubstringText).
struct TextExtraction {
  std::vector<Document> documents;  // documents[i] encodes texts[i]
  ParallelExtraction extraction;
};

/// Fans document encoding and extraction out over a work-stealing
/// ThreadPool against one shared, immutable `Aeetes`. The whole online
/// path — EncodeDocument included — is const and race-free (the
/// thread-safety contract in aeetes.h), so nothing needs to run serially:
/// pass raw texts to ExtractTexts and the workers encode them too, or
/// pass Documents encoded elsewhere to ExtractAll.
///
/// The extractor owns its pool and is reusable: ExtractAll may be called
/// any number of times (even concurrently — per-call state is local and
/// the pool is shared fairly).
///
/// Deliberately lock-free at this layer: every mutex it depends on lives
/// in ThreadPool (annotated, so misuse fails the -Wthread-safety gate,
/// DESIGN.md §12); what remains here is exclusive slot ownership — each
/// task writes only slots[ti], each worker only scratches_[w] — which
/// thread-safety analysis cannot express. The tsan preset is the proof
/// obligation for this file instead.
class ParallelExtractor {
 public:
  static Result<std::unique_ptr<ParallelExtractor>> Create(
      const Aeetes& aeetes, const ParallelExtractorOptions& options = {});

  /// Extracts from every document with the engine's filter strategy
  /// (AeetesOptions::strategy). Results are in document order regardless
  /// of completion order.
  Result<ParallelExtraction> ExtractAll(Span<Document> documents, double tau);

  /// Encodes every text with Aeetes::EncodeDocument on the pool workers,
  /// then extracts from the encoded Documents exactly as ExtractAll does
  /// (same chunk plan, merge and stats), so the result is byte-identical to
  /// encoding first and calling that.
  Result<TextExtraction> ExtractTexts(Span<std::string> texts, double tau);

  [[nodiscard]] size_t num_threads() const { return pool_->num_threads(); }
  [[nodiscard]] const ParallelExtractorOptions& options() const {
    return options_;
  }

  /// The underlying pool's monitoring snapshot (steals, injections, queue
  /// depth, per-worker busy fractions).
  [[nodiscard]] ThreadPool::Stats PoolStats() const {
    return pool_->GetStats();
  }

  /// Publishes the pool snapshot as `runtime.*` gauges into the engine's
  /// registry. ExtractAll calls this after every run; long-lived callers
  /// may republish it whenever they scrape.
  void PublishRuntimeMetrics() const {
    pool_->PublishMetrics(aeetes_.mutable_metrics());
  }

  /// The chunk layout ExtractAll would use for a document of `num_tokens`
  /// tokens at threshold `tau`: (begin, length) pairs covering the
  /// document, overlapping by max_window_len - 1. Exposed for tests and
  /// capacity planning; a single pair means the document runs whole.
  std::vector<std::pair<size_t, size_t>> ChunkLayout(size_t num_tokens,
                                                     double tau) const;

 private:
  ParallelExtractor(const Aeetes& aeetes,
                    const ParallelExtractorOptions& options,
                    std::unique_ptr<ThreadPool> pool)
      : aeetes_(aeetes),
        options_(options),
        pool_(std::move(pool)),
        scratches_(pool_->num_threads()) {}

  /// Longest window (in tokens) the threshold admits — the chunk-overlap
  /// quantum.
  [[nodiscard]] size_t MaxWindowTokens(double tau) const;

  /// One reusable ExtractScratch per pool worker, indexed by
  /// CurrentWorkerIndex(). A worker runs one task at a time, so its slot is
  /// never contended — even across concurrent ExtractAll calls — and after
  /// the first few documents the extraction hot path stops allocating
  /// (the allocator was the main cross-thread contention point).
  /// Cache-line alignment keeps neighboring workers' scratch headers off
  /// each other's lines.
  struct alignas(64) WorkerScratch {
    ExtractScratch scratch;
  };

  const Aeetes& aeetes_;
  ParallelExtractorOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<WorkerScratch> scratches_;
};

}  // namespace aeetes

#endif  // AEETES_RUNTIME_PARALLEL_EXTRACTOR_H_
