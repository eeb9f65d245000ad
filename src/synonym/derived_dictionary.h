#ifndef AEETES_SYNONYM_DERIVED_DICTIONARY_H_
#define AEETES_SYNONYM_DERIVED_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/span.h"
#include "src/common/status.h"
#include "src/synonym/expander.h"
#include "src/synonym/rule.h"
#include "src/text/token.h"
#include "src/text/token_dictionary.h"

namespace aeetes {

/// Index of an origin entity in the input dictionary E0.
using EntityId = uint32_t;
/// Index of a derived entity in the derived dictionary E.
using DerivedId = uint32_t;

/// One derived entity as produced by the offline builders (and the v1
/// snapshot reader): the owning, vector-backed record. The serving path
/// never touches this type — it reads DerivedView spans instead.
struct DerivedEntity {
  /// Origin entity this was derived from.
  EntityId origin = 0;
  /// Raw token sequence after rule application.
  TokenSeq tokens;
  /// Distinct tokens sorted by ascending global-order rank; the unit all
  /// filtering operates on. Populated at Build time after frequencies are
  /// final.
  TokenSeq ordered_set;
  /// Rules applied to produce this variant (empty for the origin itself).
  std::vector<RuleId> applied_rules;
  /// Product of applied rule weights (weighted-rule extension).
  double weight = 1.0;
};

/// Read-only view of one derived entity: spans alias the engine image and
/// stay valid for the image's lifetime.
struct DerivedView {
  EntityId origin = 0;
  double weight = 1.0;
  Span<TokenId> tokens;
  Span<TokenId> ordered_set;
  Span<RuleId> applied_rules;
};

struct DerivedDictionaryOptions {
  ExpanderOptions expander;
};

/// Offline-stage cost accounting captured while Build runs; surfaced as
/// `build.*` gauges on the owning Aeetes instance's metrics registry.
/// Zero for dictionaries wired from a loaded snapshot (snapshots carry no
/// build history).
struct DerivedDictionaryBuildStats {
  /// Clique solver iterations summed over all entities.
  uint64_t clique_steps = 0;
  /// Derived forms emitted by expansion (|E| before any later filtering).
  uint64_t expand_forms = 0;
  /// Duplicate derived token sequences dropped during expansion.
  uint64_t expand_dedup_hits = 0;
  /// Entities whose |D(e)| enumeration stopped at the cap.
  uint64_t capped_entities = 0;
  /// Wall time of DerivedDictionary::BuildParts.
  double derive_ms = 0.0;
};

/// Everything the offline stage produces, before it is flattened into an
/// arena: the input to EngineImage::Pack, the output of BuildParts /
/// AssembleParts / ToParts.
struct DerivedDictParts {
  std::vector<TokenSeq> origins;
  std::vector<DerivedEntity> derived;   // ordered_set populated
  std::vector<DerivedId> origin_begin;  // origins.size() + 1
  std::unique_ptr<TokenDictionary> dict;  // frozen
  double avg_applicable_rules = 0.0;
  DerivedDictionaryBuildStats stats;
};

/// The derived dictionary E = union over e in E0 of D(e) (Section 2.1),
/// together with the global token order. All entity data is read through
/// `Span` views over one contiguous arena: either a private heap arena
/// (standalone Build/FromParts, used by tests and baselines) or the
/// engine image owned by the enclosing EngineImage (the Aeetes path —
/// heap-built or mmap-loaded, same wiring either way). Owns the
/// TokenDictionary wired over the same arena.
class DerivedDictionary {
 public:
  /// Offline derivation: expands entities under the rule set, counts
  /// frequencies, freezes the dictionary and computes ordered sets.
  /// `dict` must contain all tokens of `entities` and `rules` and must not
  /// be frozen yet; `entities` must be non-empty with non-empty token
  /// sequences. Returns builder parts ready for EngineImage::Pack.
  static Result<DerivedDictParts> BuildParts(
      std::vector<TokenSeq> entities, const RuleSet& rules,
      std::unique_ptr<TokenDictionary> dict,
      const DerivedDictionaryOptions& options = {});

  /// Validates externally supplied parts (the v1 snapshot path): `dict`
  /// frozen and covering every token, `origin_begin` a monotonic prefix
  /// table of size origins+1, every derived entity non-empty and in
  /// range. `avg_applicable_rules` is taken as given.
  static Result<DerivedDictParts> AssembleParts(
      std::vector<TokenSeq> origins, std::vector<DerivedEntity> derived,
      std::vector<DerivedId> origin_begin,
      std::unique_ptr<TokenDictionary> dict, double avg_applicable_rules);

  /// Standalone convenience: BuildParts + a private arena. Tests, benches
  /// and baselines that need a dictionary without an Aeetes instance use
  /// this; the result is bit-identical in behavior to the wired engine.
  static Result<std::unique_ptr<DerivedDictionary>> Build(
      std::vector<TokenSeq> entities, const RuleSet& rules,
      std::unique_ptr<TokenDictionary> dict,
      const DerivedDictionaryOptions& options = {});

  /// Standalone convenience: AssembleParts + a private arena.
  static Result<std::unique_ptr<DerivedDictionary>> FromParts(
      std::vector<TokenSeq> origins, std::vector<DerivedEntity> derived,
      std::vector<DerivedId> origin_begin,
      std::unique_ptr<TokenDictionary> dict, double avg_applicable_rules);

  /// Flattens `parts` into image sections: the dictionary sections, every
  /// derived-dictionary section (including the size-sorted index and the
  /// rank arena, recomputed deterministically) and the img::kMeta record.
  static Status AppendSections(const DerivedDictParts& parts,
                               ImageBuilder& builder);

  /// Wires a dictionary over `view`'s sections (zero-copy; the image must
  /// outlive the result). Validates every cross-section invariant the
  /// serving path relies on — offset-table shapes, id ranges, ordered-set
  /// ordering, rank-arena agreement, size-index permutation — so release
  /// builds can serve hostile snapshots without risking out-of-bounds
  /// reads. `dict` must be the TokenDictionary wired over the same view.
  static Result<std::unique_ptr<DerivedDictionary>> WireFromImage(
      const ImageView& view, std::unique_ptr<TokenDictionary> dict);

  /// Deep-copies the wired state back into builder parts (including a
  /// fresh TokenDictionary clone). The cold path behind
  /// Aeetes::FromDerivedDictionary's repack.
  [[nodiscard]] Result<DerivedDictParts> ToParts() const;

  /// Origin entity `e`'s raw token sequence.
  [[nodiscard]] Span<TokenId> origin_entity(EntityId e) const {
    const size_t begin = static_cast<size_t>(origin_token_begin_[e]);
    const size_t end = static_cast<size_t>(origin_token_begin_[e + 1]);
    return origin_tokens_.subspan(begin, end - begin);
  }

  /// Full view of derived entity `d`.
  [[nodiscard]] DerivedView derived(DerivedId d) const {
    DerivedView view;
    view.origin = derived_origin_[d];
    view.weight = derived_weight_[d];
    view.tokens = SliceU64(derived_tokens_, derived_token_begin_, d);
    view.ordered_set = ordered_set(d);
    view.applied_rules = SliceU64(derived_rules_, derived_rule_begin_, d);
    return view;
  }

  [[nodiscard]] EntityId origin_of(DerivedId d) const {
    return derived_origin_[d];
  }
  [[nodiscard]] double weight(DerivedId d) const { return derived_weight_[d]; }
  [[nodiscard]] Span<TokenId> ordered_set(DerivedId d) const {
    return SliceU64(derived_set_tokens_, derived_set_begin_, d);
  }
  [[nodiscard]] uint32_t ordered_set_size(DerivedId d) const {
    return static_cast<uint32_t>(derived_set_begin_[d + 1] -
                                 derived_set_begin_[d]);
  }

  [[nodiscard]] const TokenDictionary& token_dict() const { return *dict_; }

  /// Derived ids belonging to origin `e` (contiguous range).
  [[nodiscard]] std::pair<DerivedId, DerivedId> DerivedRange(EntityId e) const {
    return {origin_begin_[e], origin_begin_[e + 1]};
  }

  /// Derived ids regrouped by origin (same offsets as DerivedRange) but
  /// sorted within each origin by ascending ordered-set size, ties by
  /// ascending id. `size_sorted_sizes()` is the parallel array of those
  /// set sizes, so the verifier's length filter is a binary search over
  /// 4-byte keys instead of a pointer chase through derived entities.
  [[nodiscard]] Span<DerivedId> size_sorted_ids() const {
    return size_sorted_ids_;
  }
  [[nodiscard]] Span<uint32_t> size_sorted_sizes() const {
    return size_sorted_sizes_;
  }

  /// Materialized ordered-set ranks of derived entity `d` (ascending,
  /// `ordered_set_size(d)` entries). Verification merges run over these
  /// flat arrays instead of re-deriving each rank from the frequency
  /// table per comparison.
  [[nodiscard]] const TokenRank* derived_ranks(DerivedId d) const {
    return ranks_arena_.data() + ranks_begin_[d];
  }

  /// Smallest / largest ordered-set size over all derived entities.
  [[nodiscard]] size_t min_set_size() const { return min_set_size_; }
  [[nodiscard]] size_t max_set_size() const { return max_set_size_; }

  [[nodiscard]] size_t num_origins() const { return num_origins_; }
  [[nodiscard]] size_t num_derived() const { return num_derived_; }

  /// Average |A(e)| (rules in the selected non-conflict groups), a Table 1
  /// statistic.
  [[nodiscard]] double avg_applicable_rules() const {
    return avg_applicable_rules_;
  }

  using BuildStats = DerivedDictionaryBuildStats;
  /// Cost accounting of the BuildParts call that produced this dictionary
  /// (zero when wired from a loaded snapshot).
  [[nodiscard]] const BuildStats& build_stats() const { return build_stats_; }
  /// Pack-path plumbing: carries the builder's stats onto the wired
  /// instance (EngineImage::Pack and the standalone Build call this).
  void set_build_stats(const BuildStats& stats) { build_stats_ = stats; }

 private:
  DerivedDictionary() = default;

  template <typename T>
  Span<T> SliceU64(Span<T> arena, Span<uint64_t> begin_table,
                   DerivedId d) const {
    const size_t begin = static_cast<size_t>(begin_table[d]);
    const size_t end = static_cast<size_t>(begin_table[d + 1]);
    return arena.subspan(begin, end - begin);
  }

  /// Wires `parts` through a private arena (standalone Build/FromParts).
  static Result<std::unique_ptr<DerivedDictionary>> PackStandalone(
      DerivedDictParts parts);

  AlignedBuffer backing_;  // private arena; empty when EngineImage owns it
  std::unique_ptr<const TokenDictionary> dict_;

  Span<uint64_t> origin_token_begin_;  // num_origins + 1
  Span<TokenId> origin_tokens_;
  Span<EntityId> derived_origin_;       // num_derived
  Span<double> derived_weight_;         // num_derived
  Span<uint64_t> derived_token_begin_;  // num_derived + 1
  Span<TokenId> derived_tokens_;
  Span<uint64_t> derived_set_begin_;  // num_derived + 1
  Span<TokenId> derived_set_tokens_;
  Span<uint64_t> derived_rule_begin_;  // num_derived + 1
  Span<RuleId> derived_rules_;
  Span<DerivedId> origin_begin_;     // num_origins + 1
  Span<DerivedId> size_sorted_ids_;  // see size_sorted_ids()
  Span<uint32_t> size_sorted_sizes_;
  Span<uint64_t> ranks_begin_;  // num_derived + 1
  Span<TokenRank> ranks_arena_;

  size_t num_origins_ = 0;
  size_t num_derived_ = 0;
  size_t min_set_size_ = 0;
  size_t max_set_size_ = 0;
  double avg_applicable_rules_ = 0.0;
  BuildStats build_stats_;
};

}  // namespace aeetes

#endif  // AEETES_SYNONYM_DERIVED_DICTIONARY_H_
