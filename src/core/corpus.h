#ifndef AEETES_CORE_CORPUS_H_
#define AEETES_CORE_CORPUS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/aeetes.h"

namespace aeetes {

struct CorpusExtractionOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  size_t num_threads = 0;
};

/// Extraction results for one document of a corpus.
struct DocumentMatches {
  uint32_t doc = 0;
  std::vector<Match> matches;
  FilterStats filter_stats;
};

/// Result of a corpus run, with aggregate statistics.
struct CorpusExtraction {
  std::vector<DocumentMatches> per_document;  // indexed by document
  FilterStats total_filter_stats;
  uint64_t total_matches = 0;
};

/// Extracts from many documents in parallel. Documents are encoded first
/// (read-only), then extraction fans out over worker threads. Results are
/// deterministic and ordered by document regardless of thread count.
Result<CorpusExtraction> ExtractCorpus(
    const Aeetes& aeetes, const std::vector<std::string>& documents, double tau,
    const CorpusExtractionOptions& options = {});

/// Keeps the k highest-scoring matches (ties broken by position, then
/// entity, for determinism), sorted by descending score.
std::vector<Match> TopKByScore(std::vector<Match> matches, size_t k);

}  // namespace aeetes

#endif  // AEETES_CORE_CORPUS_H_
