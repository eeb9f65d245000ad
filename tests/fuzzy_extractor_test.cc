#include "src/baseline/fuzzy_extractor.h"

#include <gtest/gtest.h>

#include <memory>

namespace aeetes {
namespace {

class FuzzyExtractorTest : public testing::Test {
 protected:
  void SetUp() override {
    dict_ = std::make_unique<TokenDictionary>();
    univ_ = dict_->GetOrAdd("university");
    auckland_ = dict_->GetOrAdd("auckland");
    aukland_ = dict_->GetOrAdd("aukland");  // typo form
    noise_ = dict_->GetOrAdd("noise");
    for (TokenId t : {univ_, auckland_}) {
      ASSERT_TRUE(dict_->AddFrequency(t).ok());
    }
    dict_->Freeze();
  }

  std::unique_ptr<TokenDictionary> dict_;
  TokenId univ_, auckland_, aukland_, noise_;
};

TEST_F(FuzzyExtractorTest, FindsExactMentions) {
  FuzzyExtractor fx({{univ_, auckland_}}, *dict_);
  const Document doc = Document::FromTokens({noise_, univ_, auckland_});
  const auto matches = fx.Extract(doc, 0.9);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].token_begin, 1u);
  EXPECT_DOUBLE_EQ(matches[0].score, 1.0);
}

TEST_F(FuzzyExtractorTest, RecoversTypoMentionsJaccardWouldMiss) {
  FuzzyExtractor fx({{univ_, auckland_}}, *dict_);
  const Document doc = Document::FromTokens({univ_, aukland_, noise_});
  // Plain Jaccard of {university, aukland} vs {university, auckland} is
  // 1/3 < 0.7; FJ lifts it via the typo edge (1 + 0.875) / (4 - 1.875).
  const auto matches = fx.Extract(doc, 0.7);
  bool found = false;
  for (const Match& m : matches) {
    if (m.token_begin == 0 && m.token_len == 2) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(FuzzyExtractorTest, RespectsThreshold) {
  FuzzyExtractor fx({{univ_, auckland_}}, *dict_);
  const Document doc = Document::FromTokens({univ_, noise_});
  // {university, noise}: only one exact token, FJ = 1/3.
  const auto matches = fx.Extract(doc, 0.7);
  for (const Match& m : matches) {
    EXPECT_FALSE(m.token_begin == 0 && m.token_len == 2);
  }
}

TEST_F(FuzzyExtractorTest, NoSynonymAwareness) {
  // FJ cannot bridge "big apple" to "new york" — that requires rules.
  auto dict = std::make_unique<TokenDictionary>();
  const TokenId big = dict->GetOrAdd("big");
  const TokenId apple = dict->GetOrAdd("apple");
  const TokenId nw = dict->GetOrAdd("new");
  const TokenId york = dict->GetOrAdd("york");
  for (TokenId t : {nw, york}) ASSERT_TRUE(dict->AddFrequency(t).ok());
  dict->Freeze();
  FuzzyExtractor fx({{nw, york}}, *dict);
  const Document doc = Document::FromTokens({big, apple});
  EXPECT_TRUE(fx.Extract(doc, 0.7).empty());
}

TEST_F(FuzzyExtractorTest, DocumentWordMissingFromDictionaryDies) {
  FuzzyExtractor fx({{univ_, auckland_}}, *dict_);
  const Document doc =
      Document::FromText("university of auckland", Tokenizer(), *dict_);
  EXPECT_DEATH(fx.Extract(doc, 0.7), "document word missing");
}

}  // namespace
}  // namespace aeetes
