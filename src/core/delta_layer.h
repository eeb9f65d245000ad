#ifndef AEETES_CORE_DELTA_LAYER_H_
#define AEETES_CORE_DELTA_LAYER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/core/document.h"
#include "src/core/verifier.h"
#include "src/sim/similarity.h"
#include "src/synonym/derived_dictionary.h"
#include "src/synonym/rule.h"
#include "src/text/tokenizer.h"

namespace aeetes {

/// Per-thread buffers for the delta query path, owned by ExtractScratch.
/// Unlike the frozen path these buffers carry no cross-call invariants —
/// every vector is cleared by the callee — but like the frozen path their
/// capacity survives, so a warm delta query settles into reuse. (The delta
/// path is exempt from the strict zero-allocation contract: it only runs
/// when a mutable overlay is attached, and `std::inplace_merge` of the two
/// match runs may allocate.)
struct DeltaQueryBuffers {
  /// Document-position probe results: delta token id + 1, or 0 when the
  /// position's token is unknown to the delta overlay.
  std::vector<uint32_t> pos_delta;
  /// TokenId -> (delta token id + 1, or 0) memo for the current call.
  FlatMap<TokenId, uint32_t> token_cache;
  /// Candidate (window, delta-entry ordinal) triples before dedupe.
  std::vector<Candidate> candidates;
  /// Distinct tokens of the current window (set size = x).
  std::vector<TokenId> window_tokens;
  /// Ascending delta token ids present in the current window.
  std::vector<uint32_t> window_set;
};

/// One immutable published state of a DeltaLayer. Mutations never touch a
/// published index — the layer builds a fresh one and swaps the shared_ptr
/// — so extraction threads read it without synchronization (RCU-style:
/// grab one snapshot per Extract call and use it throughout).
class DeltaIndex {
 public:
  /// One derived form of a delta entity, in the overlay's private token-id
  /// space (ids are dense per layer and unrelated to the frozen
  /// dictionary's TokenIds; queries bridge the two spaces by token text).
  struct Form {
    /// Raw token sequence after rule application (sequence order).
    std::vector<uint32_t> raw;
    /// Distinct token ids, ascending. Intersections against window sets
    /// use this; any consistent total order yields exact overlap sizes.
    std::vector<uint32_t> set;
    /// Rules applied (ids into the layer's rule list).
    std::vector<RuleId> applied;
    double weight = 1.0;
  };

  /// One live (upserted, not removed) delta entity.
  struct Entry {
    /// Global EntityId: frozen num_origins + slot. Stable across snapshots
    /// of one layer; renumbered only by compaction.
    EntityId id = 0;
    /// Origin token texts (the upserted entity, tokenized).
    std::vector<std::string> tokens;
    std::vector<Form> forms;
  };

  /// True when this snapshot changes nothing — no live delta entities, no
  /// tombstones — so callers can take the frozen-only fast path.
  [[nodiscard]] bool passthrough() const {
    return entries_.empty() && tombstones_.empty();
  }

  /// False when every entity (frozen and delta) is removed; extraction
  /// over an empty dictionary returns no matches.
  [[nodiscard]] bool has_live_entities() const { return has_live_; }

  /// Effective derived-set size bounds over all *live* entities (frozen
  /// non-tombstoned + delta). Window enumeration must use these — not the
  /// frozen dictionary's — for rebuild-exact results: a tombstone can
  /// shrink the range and an upsert can widen it, and both change which
  /// raw window lengths a rebuilt engine would enumerate.
  [[nodiscard]] size_t entity_size_min() const { return e_min_; }
  [[nodiscard]] size_t entity_size_max() const { return e_max_; }

  [[nodiscard]] bool has_tombstones() const { return !tombstones_.empty(); }
  [[nodiscard]] bool IsTombstoned(EntityId e) const;
  [[nodiscard]] const std::vector<EntityId>& tombstones() const {
    return tombstones_;
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// Token text of delta token id `t` (compaction re-interns via these).
  [[nodiscard]] const std::vector<std::string>& token_texts() const {
    return token_texts_;
  }
  /// Mutation-log position this snapshot reflects.
  [[nodiscard]] uint64_t generation() const { return generation_; }

  /// Appends every delta match of `doc` to `out`: windows within `win_len`
  /// (the *effective* bounds above, computed by the caller for its tau)
  /// that score >= tau against a live delta entity. Appended matches are
  /// sorted by (token_begin, token_len, entity) and carry entity ids
  /// disjoint from frozen ids, so merging with the frozen run is a stable
  /// merge with no duplicates. `dict` is the engine's dictionary the
  /// document was encoded against; document tokens are matched to delta
  /// tokens by text (Document::TokenText).
  ///
  /// Exactness: scoring mirrors JaccArVerifier::BestAboveRanksPartner
  /// operation for operation — partner length filter, the hoisted
  /// unweighted-Jaccard required-overlap form, RequiredOverlap under
  /// effective tau for weighted forms, SetSimilarity(metric, o, y, x),
  /// weight scaling, ScorePasses — so a window's score here is
  /// bit-identical to what a full rebuild's verifier would produce.
  void CollectMatches(const Document& doc, const TokenDictionary& dict,
                      double tau, Metric metric, bool weighted,
                      const LengthRange& win_len, DeltaQueryBuffers& buf,
                      std::vector<Match>& out, VerifyStats* stats) const;

 private:
  friend class DeltaLayer;
  friend Result<DerivedDictParts> BuildCompactedParts(
      const DerivedDictionary& frozen, const DeltaIndex& delta);

  std::vector<Entry> entries_;
  /// Token text -> delta token id (heterogeneous lookup keeps document
  /// probing allocation-free).
  std::map<std::string, uint32_t, std::less<>> token_of_text_;
  std::vector<std::string> token_texts_;  // delta id -> text
  /// Delta token id -> ascending entry ordinals whose forms contain it.
  std::vector<std::vector<uint32_t>> postings_;
  /// Removed frozen origins, ascending.
  std::vector<EntityId> tombstones_;
  bool has_live_ = true;
  size_t e_min_ = 0;
  size_t e_max_ = 0;
  uint64_t generation_ = 0;
};

/// One mutation applied to a DeltaLayer, replayable onto a fresh layer
/// (the compaction cutover uses this to carry over mutations that raced
/// with the rebuild).
struct DeltaMutation {
  enum class Kind { kUpsert = 0, kRemove = 1, kRules = 2 };
  Kind kind = Kind::kUpsert;
  /// Entity text for kUpsert/kRemove; a rule line for kRules.
  std::string text;
};

/// The mutable overlay over one frozen engine image: recently upserted /
/// removed entities and synonym rules, expanded through the same
/// ExpandEntity path the offline build uses, with in-memory posting lists
/// and a tombstone set for removals (DESIGN.md §15).
///
/// Thread-safety: fully internally synchronized. Mutations serialize on an
/// internal mutex, rebuild an immutable DeltaIndex and publish it; readers
/// call snapshot() (one brief lock) and then run lock-free against the
/// returned index. The layer never touches the engine's TokenDictionary —
/// it interns into a private token space and bridges by token text at
/// query time (Document::TokenText) — so mutations are safe concurrently
/// with extraction.
///
/// Update semantics (keyed by normalized token-joined text):
///  * Upsert of a live frozen origin's exact text: no-op.
///  * Upsert of a tombstoned frozen origin's text: un-tombstones it (the
///    frozen expansion, built under the image's rules, comes back).
///  * Any other upsert: inserts (or re-expands, keeping id) a delta
///    entity, expanded under the layer's current rules.
///  * Remove: tombstones the frozen origin and/or drops the delta entity.
///  * UpsertRules: appends rules and re-expands delta entities. New rules
///    apply to delta entities only — frozen expansions are fixed until a
///    compaction-free rebuild (documented limitation; snapshot-loaded
///    images carry no rule text to re-expand from).
///
/// The mutation log grows until the layer is retired by a compaction swap
/// (the new engine starts a fresh layer), bounding it by the write traffic
/// of one compaction interval.
class DeltaLayer {
 public:
  struct Options {
    /// Must match the owning engine's AeetesOptions fields of the same
    /// name, or delta expansions diverge from what a rebuild would do.
    DerivedDictionaryOptions derivation;
    TokenizerOptions tokenizer;
  };

  /// Creates an empty overlay for `frozen`. `rule_lines` is the rule text
  /// the collection was created with (empty for snapshot-loaded images —
  /// then delta entities expand under no rules). The frozen dictionary
  /// must outlive the layer.
  static Result<std::shared_ptr<DeltaLayer>> Create(
      const DerivedDictionary& frozen, std::vector<std::string> rule_lines,
      const Options& options = {});

  /// Inserts or replaces entities (one text each). Returns the number of
  /// entities whose state changed. Empty-tokenizing texts are rejected.
  Result<size_t> UpsertEntities(const std::vector<std::string>& entities);

  /// Removes entities by text. Unknown texts are ignored; returns the
  /// number actually removed.
  Result<size_t> RemoveEntities(const std::vector<std::string>& entities);

  /// Appends synonym rules ("lhs <=> rhs" lines) and re-expands every
  /// live delta entity under the enlarged rule set.
  Result<size_t> UpsertRules(const std::vector<std::string>& rule_lines);

  /// The current published index; never null. Safe from any thread.
  [[nodiscard]] std::shared_ptr<const DeltaIndex> snapshot() const;

  /// Mutation-log length (== generation of the newest snapshot).
  [[nodiscard]] uint64_t generation() const;
  /// Log records appended at or after `generation`.
  [[nodiscard]] std::vector<DeltaMutation> MutationsSince(
      uint64_t generation) const;
  /// Applies a MutationsSince tail onto this (fresh) layer.
  Status Replay(const std::vector<DeltaMutation>& tail);
  /// Base + upserted rule lines (seed for a successor layer).
  [[nodiscard]] std::vector<std::string> rule_lines() const;

  /// Text of a delta-allocated entity id (valid for every id this layer
  /// ever allocated, including removed ones — response building may
  /// resolve a match that raced with a removal). Empty for foreign ids.
  [[nodiscard]] std::string EntityText(EntityId id) const;
  [[nodiscard]] bool OwnsEntity(EntityId id) const;

  [[nodiscard]] size_t live_entities() const;
  [[nodiscard]] size_t tombstone_count() const;

 private:
  /// One delta entity slot. Slots are allocated once per distinct key and
  /// never reused, so EntityId = frozen_origins + slot stays resolvable
  /// after removal.
  struct Slot {
    std::string key;                  // normalized token-joined text
    std::vector<std::string> tokens;  // token texts
    bool live = false;
    std::vector<DeltaIndex::Form> forms;
  };

  DeltaLayer(const DerivedDictionary& frozen, const Options& options);

  /// Lazily builds the frozen-side lookup structures (text -> origin map,
  /// size-sorted per-origin bounds) on first mutation.
  void EnsureFrozenMaps() AEETES_REQUIRES(mu_);

  Status UpsertOne(const std::string& text, size_t* changed)
      AEETES_REQUIRES(mu_);
  size_t RemoveOne(const std::string& text) AEETES_REQUIRES(mu_);
  Status AddRule(const std::string& line) AEETES_REQUIRES(mu_);
  std::vector<DeltaIndex::Form> Expand(const TokenSeq& ids)
      AEETES_REQUIRES(mu_);

  /// Rebuilds the immutable index from master state and publishes it.
  void Publish() AEETES_REQUIRES(mu_);

  const DerivedDictionary& frozen_;
  const Options options_;
  const Tokenizer tokenizer_;
  const size_t frozen_origins_;

  mutable Mutex mu_;
  /// Private token space: rule and delta-entity tokens only. Never frozen,
  /// never read by queries (snapshots carry their own text maps).
  TokenDictionary delta_dict_ AEETES_GUARDED_BY(mu_);
  RuleSet rules_ AEETES_GUARDED_BY(mu_);
  std::vector<std::string> rule_lines_ AEETES_GUARDED_BY(mu_);
  std::vector<Slot> slots_ AEETES_GUARDED_BY(mu_);
  std::map<std::string, uint32_t, std::less<>> slot_of_key_
      AEETES_GUARDED_BY(mu_);
  std::vector<EntityId> tombstones_ AEETES_GUARDED_BY(mu_);  // sorted
  std::vector<DeltaMutation> log_ AEETES_GUARDED_BY(mu_);

  bool frozen_maps_built_ AEETES_GUARDED_BY(mu_) = false;
  std::map<std::string, EntityId, std::less<>> frozen_by_text_
      AEETES_GUARDED_BY(mu_);
  /// (per-origin min derived-set size, origin), ascending by size; and the
  /// max counterpart descending — snapshot builds walk these past the
  /// tombstone set to find the live frozen bounds without an O(origins)
  /// rescan per mutation.
  std::vector<std::pair<uint32_t, EntityId>> frozen_min_sorted_
      AEETES_GUARDED_BY(mu_);
  std::vector<std::pair<uint32_t, EntityId>> frozen_max_sorted_
      AEETES_GUARDED_BY(mu_);

  mutable Mutex snap_mu_;
  std::shared_ptr<const DeltaIndex> snapshot_ AEETES_GUARDED_BY(snap_mu_);
};

/// Rebuilds offline parts equivalent to a full BuildParts over the live
/// entity set: surviving frozen origins (in id order) followed by delta
/// entities (in slot order), each keeping its already-expanded derived
/// forms verbatim — frozen forms re-interned from the frozen dictionary,
/// delta forms from the overlay's text tables — with frequencies recounted
/// over the combined derived multiset exactly as BuildParts counts them.
/// Extraction against the packed result is bit-identical to the
/// frozen+delta merged view (scores depend only on set overlaps and
/// sizes, which re-interning preserves). Fails when no live entity
/// remains. The input snapshot also tells the caller (via generation())
/// which mutation-log prefix the result covers.
Result<DerivedDictParts> BuildCompactedParts(const DerivedDictionary& frozen,
                                             const DeltaIndex& delta);

}  // namespace aeetes

#endif  // AEETES_CORE_DELTA_LAYER_H_
