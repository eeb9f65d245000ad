#ifndef AEETES_BASELINE_FAERIE_H_
#define AEETES_BASELINE_FAERIE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/core/document.h"
#include "src/core/verifier.h"
#include "src/sim/similarity.h"
#include "src/text/token.h"
#include "src/text/token_dictionary.h"

namespace aeetes {

/// Reimplementation of Faerie (Deng, Li, Feng, Duan, Gong — VLDB J. 2015),
/// the state-of-the-art AEE baseline the paper compares against. Faerie
/// builds a token inverted index over dictionary entities; per document it
/// materializes, for every entity, the sorted list of document positions
/// containing the entity's tokens, then finds candidate windows with the
/// count filter using the span technique (any window of length l must
/// contain at least T = RequiredOverlap(|e|, l, tau) entity-token
/// positions) and the shift heuristic (binary-search jumps over sparse
/// position runs). Candidates are verified with plain Jaccard.
class Faerie {
 public:
  struct Options {
    Metric metric;
    Options() : metric(Metric::kJaccard) {}
  };

  struct Stats {
    uint64_t position_entries = 0;  // appended (entity, position) pairs
    uint64_t spans_probed = 0;
    uint64_t candidates = 0;
    uint64_t verified = 0;
  };

  /// Builds the inverted index over `entities` (token sequences; distinct
  /// token sets are what similarity is computed on). The dictionary must
  /// already contain all entity tokens and be frozen (InvalidArgument
  /// otherwise).
  static Result<std::unique_ptr<Faerie>> Build(
      std::vector<TokenSeq> entities,
      std::shared_ptr<const TokenDictionary> dict, Options options = Options());

  struct FaerieMatch {
    uint32_t token_begin = 0;
    uint32_t token_len = 0;
    uint32_t entity = 0;
    double score = 0.0;
  };

  /// All (entity, substring) pairs with similarity >= tau.
  std::vector<FaerieMatch> Extract(const Document& doc, double tau,
                                   Stats* stats = nullptr) const;

  [[nodiscard]] size_t num_entities() const { return entity_sets_.size(); }
  [[nodiscard]] const TokenSeq& entity_set(size_t i) const {
    return entity_sets_[i];
  }
  [[nodiscard]] size_t min_set_size() const { return min_set_size_; }
  [[nodiscard]] size_t max_set_size() const { return max_set_size_; }

  /// Approximate index footprint in bytes (Section 6.3 reports index
  /// sizes).
  [[nodiscard]] size_t MemoryBytes() const;

 private:
  Faerie() = default;

  Options options_;
  std::shared_ptr<const TokenDictionary> dict_;
  /// Ordered (by rank) distinct token sets per entity.
  std::vector<TokenSeq> entity_sets_;
  /// token -> entity ids containing it (flattened CSR).
  std::vector<uint32_t> postings_;
  std::vector<uint32_t> list_begin_;  // size = max token id + 2
  size_t min_set_size_ = 0;
  size_t max_set_size_ = 0;
};

}  // namespace aeetes

#endif  // AEETES_BASELINE_FAERIE_H_
