#ifndef AEETES_SIM_JACCAR_H_
#define AEETES_SIM_JACCAR_H_

#include <cstddef>

#include "src/sim/fuzzy_jaccard.h"
#include "src/sim/similarity.h"
#include "src/synonym/derived_dictionary.h"
#include "src/text/token.h"

namespace aeetes {

struct JaccArOptions {
  /// Underlying syntactic metric (Jaccard in the paper; the framework also
  /// supports Cosine/Dice/Overlap).
  Metric metric = Metric::kJaccard;
  /// When true, each derived entity's contribution is scaled by the product
  /// of its applied rules' weights (the paper's future-work item (iii)):
  ///   score = max_i weight(e_i) * sim(e_i, s).
  bool weighted = false;
};

/// Result of scoring one (entity, substring) pair.
struct JaccArScore {
  double score = 0.0;
  /// The derived entity realizing the maximum, or kNoDerived when no
  /// derived entity passed the length filter.
  DerivedId best_derived = kNoDerived;

  static constexpr DerivedId kNoDerived = static_cast<DerivedId>(-1);
};

/// Computes Asymmetric Rule-based Jaccard (Definition 2.1):
///   JaccAR(e, s) = max over e_i in D(e) of sim(e_i, s).
/// The length filter skips derived entities whose set size cannot reach
/// `tau` against |s|; pass tau = 0 to disable the skip and obtain the exact
/// maximum over all derived entities.
class JaccArVerifier {
 public:
  explicit JaccArVerifier(const DerivedDictionary& dd, JaccArOptions options = {})
      : dd_(dd), options_(options) {}

  /// Scores entity `e` against a substring given as an ordered set.
  JaccArScore Score(EntityId e, const TokenSeq& substring_ordered_set,
                    double tau = 0.0) const;

  /// True iff JaccAR(e, s) >= tau (early exit on the first witness).
  bool AtLeast(EntityId e, const TokenSeq& substring_ordered_set,
               double tau) const;

  /// Thresholded scoring with early-terminating overlap merges (future
  /// work (i)): derived entities whose overlap cannot reach tau abort
  /// after a few token comparisons. The returned score is exact whenever
  /// it is >= tau; when JaccAR(e, s) < tau the returned score is 0 with no
  /// witness. This is what the verification phase uses.
  JaccArScore BestAbove(EntityId e, const TokenSeq& substring_ordered_set,
                        double tau) const;

  /// BestAbove over the substring's pre-materialized rank array (see
  /// BuildOrderedRanksInto). The overlap merges compare plain integers
  /// against the dictionary's flat per-derived rank arena — this is the
  /// verification hot path.
  JaccArScore BestAboveRanks(EntityId e, const TokenRank* substring_ranks,
                             size_t substring_size, double tau) const;

  /// Hot-path variant with the substring-dependent inputs precomputed by
  /// the caller: `partner` is the partner length range of the substring
  /// set size — constant per substring, so verification computes it once
  /// per window instead of once per candidate.
  JaccArScore BestAboveRanksPartner(EntityId e,
                                    const TokenRank* substring_ranks,
                                    size_t substring_size, double tau,
                                    const LengthRange& partner) const;

  [[nodiscard]] const JaccArOptions& options() const { return options_; }

 private:
  const DerivedDictionary& dd_;
  JaccArOptions options_;
};

/// Typo-tolerant JaccAR — the paper's future-work item (ii): the inner
/// syntactic similarity is Fuzzy Jaccard (edit-similar tokens count
/// fractionally), so a substring can survive both a synonym rewrite *and*
/// a character typo:
///   FuzzyJaccAR(e, s) = max over e_i in D(e) of FJ(e_i, s).
///
/// Scoring-only: the prefix filter does not hold under fuzzy token
/// matching, so this class verifies or re-ranks candidate pairs produced
/// elsewhere (or drives the brute-force reference extractor); it is not
/// wired into the indexed filter pipeline.
class FuzzyJaccArVerifier {
 public:
  FuzzyJaccArVerifier(const DerivedDictionary& dd,
                      FuzzyJaccardOptions fuzzy_options = {},
                      bool weighted = false)
      : dd_(dd), fj_(fuzzy_options), weighted_(weighted) {}

  /// Max Fuzzy Jaccard over the derived entities of `e`.
  [[nodiscard]] JaccArScore Score(
      EntityId e, const TokenSeq& substring_ordered_set) const;

 private:
  const DerivedDictionary& dd_;
  FuzzyJaccard fj_;
  bool weighted_;
};

}  // namespace aeetes

#endif  // AEETES_SIM_JACCAR_H_
