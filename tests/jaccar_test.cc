#include "src/sim/jaccar.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/text/token_set.h"

namespace aeetes {
namespace {

class JaccArTest : public testing::Test {
 protected:
  void Build(double rule_weight = 1.0) {
    auto dict = std::make_unique<TokenDictionary>();
    for (const char* w : {"uq", "au", "university", "of", "queensland",
                          "australia", "purdue", "usa"}) {
      ids_[w] = dict->GetOrAdd(w);
    }
    RuleSet rules;
    ASSERT_TRUE(rules
                    .Add({Id("uq")},
                         {Id("university"), Id("of"), Id("queensland")},
                         rule_weight)
                    .ok());
    ASSERT_TRUE(rules.Add({Id("au")}, {Id("australia")}, rule_weight).ok());
    std::vector<TokenSeq> entities = {{Id("uq"), Id("au")},
                                      {Id("purdue"), Id("usa")}};
    auto dd = DerivedDictionary::Build(std::move(entities), rules,
                                       std::move(dict));
    ASSERT_TRUE(dd.ok());
    dd_ = std::move(*dd);
  }

  TokenId Id(const std::string& w) { return ids_.at(w); }

  TokenSeq Set(const std::vector<std::string>& words) {
    TokenSeq seq;
    for (const auto& w : words) seq.push_back(Id(w));
    return BuildOrderedSet(seq, dd_->token_dict());
  }

  std::map<std::string, TokenId> ids_;
  std::unique_ptr<DerivedDictionary> dd_;
};

TEST_F(JaccArTest, ExactDerivedMatchScoresOne) {
  Build();
  JaccArVerifier v(*dd_);
  const auto s =
      v.Score(0, Set({"university", "of", "queensland", "australia"}));
  EXPECT_DOUBLE_EQ(s.score, 1.0);
  EXPECT_NE(s.best_derived, JaccArScore::kNoDerived);
}

TEST_F(JaccArTest, MaxOverDerivedEntities) {
  Build();
  JaccArVerifier v(*dd_);
  // "uq australia" matches the single-rule variant exactly.
  EXPECT_DOUBLE_EQ(v.Score(0, Set({"uq", "australia"})).score, 1.0);
  // Plain Jaccard against the origin would be 1/3.
  EXPECT_DOUBLE_EQ(v.Score(1, Set({"purdue", "usa"})).score, 1.0);
}

TEST_F(JaccArTest, AsymmetryNoRulesOnSubstringSide) {
  Build();
  JaccArVerifier v(*dd_);
  // The substring "uq au" does NOT get rules applied to it when compared
  // to entity 1 ("purdue usa") — score stays 0.
  EXPECT_DOUBLE_EQ(v.Score(1, Set({"uq", "au"})).score, 0.0);
}

TEST_F(JaccArTest, PartialOverlapScores) {
  Build();
  JaccArVerifier v(*dd_);
  // {university of queensland au} vs best derived {university of
  // queensland australia} -> 3/5; vs {university of queensland au} (the
  // r1-only variant) -> 4/4 = 1.0.
  EXPECT_DOUBLE_EQ(
      v.Score(0, Set({"university", "of", "queensland", "au"})).score, 1.0);
}

TEST_F(JaccArTest, LengthFilteredScoreStillFindsWitnessAboveTau) {
  Build();
  JaccArVerifier v(*dd_);
  const TokenSeq s = Set({"uq", "au"});
  const auto unfiltered = v.Score(0, s, 0.0);
  const auto filtered = v.Score(0, s, 0.9);
  EXPECT_DOUBLE_EQ(unfiltered.score, filtered.score);
  EXPECT_GE(v.BestAbove(0, s, 0.9).score, 0.9);
  EXPECT_EQ(v.BestAbove(1, s, 0.5).best_derived, JaccArScore::kNoDerived);
}

TEST_F(JaccArTest, WeightedRulesScaleScores) {
  Build(0.5);
  JaccArOptions opts;
  opts.weighted = true;
  JaccArVerifier v(*dd_, opts);
  // Unweighted origin match is unaffected.
  EXPECT_DOUBLE_EQ(v.Score(0, Set({"uq", "au"})).score, 1.0);
  // A one-rule derived match is scaled by the rule weight.
  EXPECT_DOUBLE_EQ(v.Score(0, Set({"uq", "australia"})).score, 0.5);
}

TEST_F(JaccArTest, BestAboveAgreesWithScoreAboveThreshold) {
  Build();
  JaccArVerifier v(*dd_);
  for (const std::vector<std::string>& words :
       {std::vector<std::string>{"uq", "au"},
        std::vector<std::string>{"uq", "australia"},
        std::vector<std::string>{"university", "of", "queensland", "au"},
        std::vector<std::string>{"purdue"}}) {
    const TokenSeq s = Set(words);
    for (double tau : {0.5, 0.7, 0.8, 0.9, 1.0}) {
      const JaccArScore exact = v.Score(0, s);
      const JaccArScore fast = v.BestAbove(0, s, tau);
      if (exact.score >= tau - 1e-9) {
        EXPECT_DOUBLE_EQ(fast.score, exact.score) << "tau=" << tau;
        EXPECT_NE(fast.best_derived, JaccArScore::kNoDerived);
      } else {
        EXPECT_LT(fast.score, tau) << "tau=" << tau;
      }
    }
  }
}

TEST_F(JaccArTest, BestAboveWeightedRespectsEffectiveThreshold) {
  Build(0.5);
  JaccArOptions opts;
  opts.weighted = true;
  JaccArVerifier v(*dd_, opts);
  const TokenSeq s = Set({"uq", "australia"});
  // Weighted score is 0.5; must pass at tau 0.4 and fail at tau 0.6.
  EXPECT_DOUBLE_EQ(v.BestAbove(0, s, 0.4).score, 0.5);
  EXPECT_LT(v.BestAbove(0, s, 0.6).score, 0.6);
}

TEST_F(JaccArTest, OtherMetricsSupported) {
  Build();
  JaccArOptions opts;
  opts.metric = Metric::kDice;
  JaccArVerifier v(*dd_, opts);
  // Dice({uq au}, {uq australia-variant}) with one common token of 2 and 2:
  // 2*1/(2+2) = 0.5 versus the exact 1.0 at the origin form.
  EXPECT_DOUBLE_EQ(v.Score(0, Set({"uq", "au"})).score, 1.0);
}

}  // namespace
}  // namespace aeetes
