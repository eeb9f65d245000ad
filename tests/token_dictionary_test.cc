#include "src/text/token_dictionary.h"

#include <gtest/gtest.h>

namespace aeetes {
namespace {

TEST(TokenDictionaryTest, InternIsIdempotent) {
  TokenDictionary d;
  const TokenId a = d.GetOrAdd("alpha");
  const TokenId b = d.GetOrAdd("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.GetOrAdd("alpha"), a);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Text(a), "alpha");
}

TEST(TokenDictionaryTest, LookupFindsOnlyInterned) {
  TokenDictionary d;
  const TokenId a = d.GetOrAdd("alpha");
  ASSERT_TRUE(d.Lookup("alpha").has_value());
  EXPECT_EQ(*d.Lookup("alpha"), a);
  EXPECT_FALSE(d.Lookup("gamma").has_value());
}

TEST(TokenDictionaryTest, FrequencyAccumulates) {
  TokenDictionary d;
  const TokenId a = d.GetOrAdd("alpha");
  ASSERT_TRUE(d.AddFrequency(a).ok());
  ASSERT_TRUE(d.AddFrequency(a, 4).ok());
  EXPECT_EQ(d.frequency(a), 5u);
  EXPECT_TRUE(d.IsValid(a));
}

TEST(TokenDictionaryTest, UnseenTokensAreInvalid) {
  TokenDictionary d;
  const TokenId a = d.GetOrAdd("alpha");
  EXPECT_FALSE(d.IsValid(a));
  EXPECT_EQ(d.frequency(a), 0u);
}

TEST(TokenDictionaryTest, AddFrequencyAfterFreezeFails) {
  TokenDictionary d;
  const TokenId a = d.GetOrAdd("alpha");
  d.Freeze();
  EXPECT_EQ(d.AddFrequency(a).code(), StatusCode::kFailedPrecondition);
}

TEST(TokenDictionaryTest, AddFrequencyOutOfRangeFails) {
  TokenDictionary d;
  EXPECT_EQ(d.AddFrequency(99).code(), StatusCode::kOutOfRange);
}

TEST(TokenDictionaryTest, InterningAfterFreezeDies) {
  TokenDictionary d;
  d.GetOrAdd("alpha");
  d.Freeze();
  EXPECT_DEATH(d.GetOrAdd("oov"), "GetOrAdd on a frozen TokenDictionary");
}

TEST(TokenDictionaryTest, IdsPastSizeAreFrequencyZero) {
  TokenDictionary d;
  const TokenId a = d.GetOrAdd("alpha");
  ASSERT_TRUE(d.AddFrequency(a).ok());
  d.Freeze();
  const TokenId unknown = static_cast<TokenId>(d.size());
  EXPECT_EQ(d.frequency(unknown), 0u);
  EXPECT_FALSE(d.IsValid(unknown));
  EXPECT_LT(d.Rank(unknown), d.Rank(a));
  EXPECT_LT(d.Rank(unknown), d.Rank(unknown + 1));
}

TEST(TokenDictionaryTest, RankOrdersByFrequencyThenId) {
  TokenDictionary d;
  const TokenId rare = d.GetOrAdd("rare");
  const TokenId common = d.GetOrAdd("common");
  const TokenId zero = d.GetOrAdd("zero");
  ASSERT_TRUE(d.AddFrequency(rare, 1).ok());
  ASSERT_TRUE(d.AddFrequency(common, 100).ok());
  d.Freeze();
  // Invalid (frequency 0) tokens rank lowest (rarest end of the order).
  EXPECT_LT(d.Rank(zero), d.Rank(rare));
  EXPECT_LT(d.Rank(rare), d.Rank(common));
}

TEST(TokenDictionaryTest, RankTieBreaksById) {
  TokenDictionary d;
  const TokenId a = d.GetOrAdd("a");
  const TokenId b = d.GetOrAdd("b");
  ASSERT_TRUE(d.AddFrequency(a, 3).ok());
  ASSERT_TRUE(d.AddFrequency(b, 3).ok());
  EXPECT_LT(d.Rank(a), d.Rank(b));
}

TEST(TokenDictionaryTest, EncodeInternsAllTokens) {
  TokenDictionary d;
  const TokenSeq seq = d.Encode({"new", "york", "new"});
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], seq[2]);
  EXPECT_NE(seq[0], seq[1]);
}

}  // namespace
}  // namespace aeetes
