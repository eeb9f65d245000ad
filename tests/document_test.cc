#include "src/core/document.h"

#include <gtest/gtest.h>

#include "src/common/hash.h"

namespace aeetes {
namespace {

TEST(DocumentTest, FromTextTracksSpans) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  const Document doc =
      Document::FromText("Hello, New York!", tokenizer, dict);
  ASSERT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.TokenSpan(0), (std::pair<size_t, size_t>{0, 5}));
  EXPECT_EQ(doc.SubstringText(1, 2), "New York");
  EXPECT_EQ(doc.SubstringText(0, 3), "Hello, New York");
}

TEST(DocumentTest, SubstringSpanClampsAtEnd) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  const Document doc = Document::FromText("a b c", tokenizer, dict);
  EXPECT_EQ(doc.SubstringText(1, 99), "b c");
  EXPECT_EQ(doc.SubstringText(5, 1), "");
  EXPECT_EQ(doc.SubstringText(0, 0), "");
}

TEST(DocumentTest, FromTokensHasNoSpans) {
  const Document doc = Document::FromTokens({1, 2, 3});
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.TokenSpan(0), (std::pair<size_t, size_t>{0, 0}));
  EXPECT_EQ(doc.SubstringText(0, 2), "");
  EXPECT_TRUE(doc.text().empty());
}

TEST(DocumentTest, DefaultIsEmpty) {
  const Document doc;
  EXPECT_EQ(doc.size(), 0u);
}

TEST(DocumentTest, UnknownTokensGetDocumentLocalIds) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  const TokenId known = dict.GetOrAdd("york");
  dict.Freeze();
  const Document doc =
      Document::FromText("new york boston new", tokenizer, dict);
  ASSERT_EQ(doc.size(), 4u);
  // Known tokens keep their id; distinct unknown ones number from
  // dict.size() in order of first appearance, repeats sharing one id.
  EXPECT_EQ(doc.tokens()[1], known);
  EXPECT_EQ(doc.tokens()[0], dict.size());
  EXPECT_EQ(doc.tokens()[2], dict.size() + 1);
  EXPECT_EQ(doc.tokens()[3], doc.tokens()[0]);
  EXPECT_EQ(doc.num_unknown(), 2u);
  EXPECT_EQ(dict.size(), 1u);  // the dictionary did not grow
  EXPECT_FALSE(dict.Lookup("new").has_value());
  EXPECT_EQ(doc.TokenText(doc.tokens()[0], dict), "new");
  EXPECT_EQ(doc.TokenText(known, dict), "york");
  EXPECT_EQ(doc.TokenText(doc.tokens()[2], dict), "boston");
  EXPECT_EQ(dict.frequency(doc.tokens()[2]), 0u);
}

TEST(DocumentTest, SliceKeepsUnknownTokenTexts) {
  Tokenizer tokenizer;
  TokenDictionary dict;
  dict.GetOrAdd("york");
  dict.Freeze();
  const Document doc = Document::FromText("new york boston", tokenizer, dict);
  const Document slice = doc.Slice(1, 2);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice.tokens()[1], doc.tokens()[2]);
  EXPECT_EQ(slice.TokenText(slice.tokens()[0], dict), "york");
  EXPECT_EQ(slice.TokenText(slice.tokens()[1], dict), "boston");
  // A document built from bare ids has no texts for unknown tokens.
  EXPECT_EQ(Document::FromTokens({5}).TokenText(5, dict), "");
}

TEST(HashTest, IntVectorHashIsDeterministicAndOrderSensitive) {
  const std::vector<uint32_t> a = {1, 2, 3};
  const std::vector<uint32_t> b = {3, 2, 1};
  IntVectorHash<uint32_t> h;
  EXPECT_EQ(h(a), h(a));
  EXPECT_NE(h(a), h(b));  // order matters
  EXPECT_NE(h(a), h(std::vector<uint32_t>{1, 2}));
}

TEST(HashTest, HashCombineChanges) {
  size_t s1 = 0, s2 = 0;
  HashCombine(s1, 1);
  HashCombine(s2, 2);
  EXPECT_NE(s1, s2);
}

}  // namespace
}  // namespace aeetes
