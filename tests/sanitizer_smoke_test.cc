// End-to-end pipeline smoke test for the sanitizer matrix: build the
// dictionary/index from the checked-in data/institutions corpus and
// extract from every document under every filter strategy. Unit tests
// cover each stage in isolation; this test exists so that `ctest` under
// ASan/UBSan/TSan walks the same offline-build -> candidate-generation ->
// verification path a real deployment does, including the stats
// invariants.

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/aeetes.h"
#include "tests/test_util.h"

#ifndef AEETES_DATA_DIR
#define AEETES_DATA_DIR "data"
#endif

namespace aeetes {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class SanitizerSmokeTest : public testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = std::string(AEETES_DATA_DIR) + "/institutions";
    entities_ = ReadLines(dir + "/entities.txt");
    rules_ = ReadLines(dir + "/rules.txt");
    documents_ = ReadLines(dir + "/documents.txt");
    if (entities_.empty() || documents_.empty()) {
      GTEST_SKIP() << "data/institutions not found at " << dir;
    }
  }

  std::vector<std::string> entities_;
  std::vector<std::string> rules_;
  std::vector<std::string> documents_;
};

TEST_F(SanitizerSmokeTest, FullPipelineAllStrategiesAllDocuments) {
  auto built = Aeetes::BuildFromText(entities_, rules_);
  ASSERT_TRUE(built.ok()) << built.status();
  auto& aeetes = *built;

  const FilterStrategy strategies[] = {
      FilterStrategy::kSimple, FilterStrategy::kSkip,
      FilterStrategy::kDynamic, FilterStrategy::kLazy};
  const double taus[] = {0.6, 0.8, 1.0};

  for (const std::string& text : documents_) {
    const Document doc = aeetes->EncodeDocument(text);
    for (double tau : taus) {
      std::vector<Match> reference;
      bool have_reference = false;
      for (FilterStrategy strategy : strategies) {
        auto result = aeetes->ExtractWithStrategy(doc, tau, strategy);
        ASSERT_TRUE(result.ok()) << result.status();
        const auto matches = testutil::Sorted(result->matches);
        // Every strategy is an exact filter: identical match sets.
        if (!have_reference) {
          reference = matches;
          have_reference = true;
        } else {
          ASSERT_EQ(matches.size(), reference.size())
              << FilterStrategyName(strategy) << " tau=" << tau;
          for (size_t i = 0; i < matches.size(); ++i) {
            EXPECT_EQ(matches[i].token_begin, reference[i].token_begin);
            EXPECT_EQ(matches[i].token_len, reference[i].token_len);
            EXPECT_EQ(matches[i].entity, reference[i].entity);
          }
        }
        // Matches must reference real positions and entities; Explain
        // walks the derived dictionary, covering it under sanitizers.
        for (const Match& m : result->matches) {
          ASSERT_LE(m.token_begin + m.token_len, doc.size());
          const auto explanation = aeetes->Explain(m, doc);
          EXPECT_FALSE(explanation.entity_text.empty());
          EXPECT_GE(m.score, tau);
        }
      }
    }
  }
}

TEST_F(SanitizerSmokeTest, SynonymMatchesAreFound) {
  auto built = Aeetes::BuildFromText(entities_, rules_);
  ASSERT_TRUE(built.ok()) << built.status();
  auto& aeetes = *built;
  // "MIT" only matches "massachusetts institute of technology" through the
  // synonym rule; if rule application broke, this whole corpus would still
  // extract *something*, so assert the synonym-only hit specifically.
  const Document doc = aeetes->EncodeDocument(
      "the program committee includes researchers from MIT");
  auto result = aeetes->Extract(doc, 0.9);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->matches.empty());
}

TEST_F(SanitizerSmokeTest, LookupStringResolvesMentions) {
  auto built = Aeetes::BuildFromText(entities_, rules_);
  ASSERT_TRUE(built.ok()) << built.status();
  auto& aeetes = *built;
  auto hits = aeetes->LookupString("mit", 0.9);
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_FALSE(hits->empty());
}

}  // namespace
}  // namespace aeetes
