#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "src/baseline/faerie.h"
#include "src/baseline/faerie_r.h"
#include "src/core/aeetes.h"
#include "src/datagen/generator.h"
#include "src/datagen/profile.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

using testutil::Sorted;

DatasetProfile TinyProfile(DatasetProfile base) {
  base.num_entities = 250;
  base.num_documents = 4;
  base.num_rules = 90;
  base.doc_len = std::min<size_t>(base.doc_len, 220);
  return base;
}

class IntegrationTest : public testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case 0:
        profile_ = TinyProfile(PubMedLikeProfile());
        break;
      case 1:
        profile_ = TinyProfile(DBWorldLikeProfile());
        break;
      default:
        profile_ = TinyProfile(USJobLikeProfile());
        break;
    }
    ds_ = GenerateDataset(profile_);
    AeetesOptions options;
    // Large enough that every single-rule derived variant materializes, so
    // planted synonym mentions are guaranteed a witness (see generator).
    options.derivation.expander.max_derived = 1024;
    auto built =
        Aeetes::BuildFromText(ds_.entity_texts, ds_.rule_lines, options);
    ASSERT_TRUE(built.ok()) << built.status();
    aeetes_ = std::move(*built);
    for (const std::string& d : ds_.documents) {
      docs_.push_back(aeetes_->EncodeDocument(d));
    }
  }

  DatasetProfile profile_;
  SyntheticDataset ds_;
  std::unique_ptr<Aeetes> aeetes_;
  std::vector<Document> docs_;
};

TEST_P(IntegrationTest, AllStrategiesAgreeOnRealisticCorpora) {
  for (size_t d = 0; d < docs_.size(); ++d) {
    auto base =
        aeetes_->ExtractWithStrategy(docs_[d], 0.8, FilterStrategy::kSimple);
    ASSERT_TRUE(base.ok());
    for (FilterStrategy s : {FilterStrategy::kSkip, FilterStrategy::kDynamic,
                             FilterStrategy::kLazy}) {
      auto got = aeetes_->ExtractWithStrategy(docs_[d], 0.8, s);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(got->matches), Sorted(base->matches))
          << profile_.name << " doc=" << d << " " << FilterStrategyName(s);
    }
  }
}

TEST_P(IntegrationTest, FaerieRCrossValidatesAeetes) {
  auto fr = FaerieR::Build(aeetes_->derived_dictionary());
  ASSERT_TRUE(fr.ok());
  for (size_t d = 0; d < docs_.size(); ++d) {
    auto aeetes_result = aeetes_->Extract(docs_[d], 0.8);
    ASSERT_TRUE(aeetes_result.ok());
    const auto a = Sorted(aeetes_result->matches);
    const auto f = Sorted((*fr)->Extract(docs_[d], 0.8));
    ASSERT_EQ(a.size(), f.size()) << profile_.name << " doc=" << d;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].token_begin, f[i].token_begin);
      EXPECT_EQ(a[i].token_len, f[i].token_len);
      EXPECT_EQ(a[i].entity, f[i].entity);
    }
  }
}

TEST_P(IntegrationTest, RecallOnExactAndSynonymMentionsIsTotal) {
  // Exact and synonym-variant mentions have JaccAR = 1.0 by construction,
  // so extraction at any threshold must recover them all.
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> found;
  for (size_t d = 0; d < docs_.size(); ++d) {
    auto result = aeetes_->Extract(docs_[d], 0.9);
    ASSERT_TRUE(result.ok());
    for (const Match& m : result->matches) {
      found.emplace(static_cast<uint32_t>(d), m.token_begin, m.entity);
    }
  }
  size_t expected = 0, recovered = 0;
  for (const GroundTruthPair& gt : ds_.ground_truth) {
    if (gt.kind != MentionKind::kExact &&
        gt.kind != MentionKind::kSynonymVariant) {
      continue;
    }
    ++expected;
    if (found.count({gt.doc, gt.token_begin, gt.entity})) ++recovered;
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(recovered, expected) << profile_.name;
}

TEST_P(IntegrationTest, SynonymMentionsAreInvisibleToPlainJaccard) {
  // Faerie over the *origin* dictionary is the no-synonym baseline.
  Tokenizer tokenizer;
  auto dict = std::make_shared<TokenDictionary>();
  std::vector<TokenSeq> entities;
  for (const std::string& e : ds_.entity_texts) {
    entities.push_back(dict->Encode(tokenizer.TokenizeToStrings(e)));
  }
  dict->Freeze();
  auto faerie = Faerie::Build(std::move(entities), dict);
  ASSERT_TRUE(faerie.ok());

  size_t synonym_total = 0, synonym_found = 0;
  for (size_t d = 0; d < docs_.size(); ++d) {
    const Document doc =
        Document::FromText(ds_.documents[d], tokenizer, *dict);
    std::set<std::pair<uint32_t, uint32_t>> found;
    for (const auto& m : (*faerie)->Extract(doc, 0.8)) {
      found.emplace(m.token_begin, m.entity);
    }
    for (const GroundTruthPair& gt : ds_.ground_truth) {
      if (gt.doc != d || gt.kind != MentionKind::kSynonymVariant) continue;
      ++synonym_total;
      if (found.count({gt.token_begin, gt.entity})) ++synonym_found;
    }
  }
  if (synonym_total > 0) {
    // Short entities (PubMed/DBWorld-like) lose most of their tokens to a
    // rewrite, so plain Jaccard misses the majority. Long USJob-like
    // entities survive single-token rewrites more often (J = 6/8 for a
    // 7-token entity), mirroring the paper's higher Jaccard recall there —
    // but JaccAR still strictly dominates (total recall, previous test).
    const double cap = profile_.entity_len_max >= 5 ? 1.0 : 0.5;
    EXPECT_LE(static_cast<double>(synonym_found),
              cap * static_cast<double>(synonym_total))
        << profile_.name << " found=" << synonym_found
        << " total=" << synonym_total;
  }
}

TEST_P(IntegrationTest, StatsAccumulateAcrossDocuments) {
  FilterStats total;
  for (const Document& doc : docs_) {
    auto result = aeetes_->Extract(doc, 0.8);
    ASSERT_TRUE(result.ok());
    total += result->filter_stats;
  }
  EXPECT_GT(total.windows, 0u);
  EXPECT_GT(total.substrings, total.windows);
}

INSTANTIATE_TEST_SUITE_P(Profiles, IntegrationTest, testing::Values(0, 1, 2),
                         [](const testing::TestParamInfo<int>& param_info) {
                           switch (param_info.param) {
                             case 0:
                               return std::string("PubMedLike");
                             case 1:
                               return std::string("DBWorldLike");
                             default:
                               return std::string("USJobLike");
                           }
                         });

}  // namespace
}  // namespace aeetes
