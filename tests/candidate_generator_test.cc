#include "src/core/candidate_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>

#include "src/baseline/brute_force.h"
#include "src/index/clustered_index.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

using testutil::MakeRandomWorld;

std::set<std::tuple<uint32_t, uint32_t, EntityId>> CandidateSet(
    const std::vector<Candidate>& cs) {
  std::set<std::tuple<uint32_t, uint32_t, EntityId>> out;
  for (const Candidate& c : cs) out.emplace(c.pos, c.len, c.origin);
  return out;
}

constexpr FilterStrategy kAllStrategies[] = {
    FilterStrategy::kSimple, FilterStrategy::kSkip, FilterStrategy::kDynamic,
    FilterStrategy::kLazy};

TEST(FilterStrategyTest, Names) {
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kSimple), "Simple");
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kSkip), "Skip");
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kDynamic), "Dynamic");
  EXPECT_STREQ(FilterStrategyName(FilterStrategy::kLazy), "Lazy");
}

TEST(CandidateGeneratorTest, AllStrategiesProduceIdenticalCandidateSets) {
  std::mt19937_64 rng(11);
  for (int iter = 0; iter < 25; ++iter) {
    auto world = MakeRandomWorld(rng);
    const Document doc = Document::FromTokens(world.doc_tokens);
    auto index = ClusteredIndex::Build(*world.dd);
    for (double tau : {0.7, 0.8, 0.9}) {
      const auto simple = GenerateCandidates(FilterStrategy::kSimple, doc,
                                             *world.dd, *index, tau);
      const auto base = CandidateSet(simple.candidates);
      for (FilterStrategy s :
           {FilterStrategy::kSkip, FilterStrategy::kDynamic,
            FilterStrategy::kLazy}) {
        const auto got =
            GenerateCandidates(s, doc, *world.dd, *index, tau);
        EXPECT_EQ(CandidateSet(got.candidates), base)
            << "strategy=" << FilterStrategyName(s) << " tau=" << tau
            << " iter=" << iter;
      }
    }
  }
}

TEST(CandidateGeneratorTest, CandidatesAreCompleteVsBruteForce) {
  std::mt19937_64 rng(13);
  for (int iter = 0; iter < 20; ++iter) {
    auto world = MakeRandomWorld(rng);
    const Document doc = Document::FromTokens(world.doc_tokens);
    auto index = ClusteredIndex::Build(*world.dd);
    for (double tau : {0.7, 0.85}) {
      const auto matches = BruteForceExtract(doc, *world.dd, tau);
      for (FilterStrategy s : kAllStrategies) {
        const auto got = GenerateCandidates(s, doc, *world.dd, *index, tau);
        const auto cset = CandidateSet(got.candidates);
        for (const Match& m : matches) {
          EXPECT_TRUE(cset.count(
              std::make_tuple(m.token_begin, m.token_len, m.entity)))
              << "missed true match at pos=" << m.token_begin
              << " len=" << m.token_len << " entity=" << m.entity
              << " strategy=" << FilterStrategyName(s) << " tau=" << tau;
        }
      }
    }
  }
}

TEST(CandidateGeneratorTest, BatchSkippingReducesAccessedEntries) {
  std::mt19937_64 rng(17);
  uint64_t simple_total = 0, skip_total = 0, dynamic_total = 0,
           lazy_total = 0;
  for (int iter = 0; iter < 10; ++iter) {
    auto world = MakeRandomWorld(rng, /*vocab=*/40, /*num_entities=*/20,
                                 /*num_rules=*/10, /*doc_len=*/120);
    const Document doc = Document::FromTokens(world.doc_tokens);
    auto index = ClusteredIndex::Build(*world.dd);
    const double tau = 0.8;
    simple_total += GenerateCandidates(FilterStrategy::kSimple, doc,
                                       *world.dd, *index, tau)
                        .stats.entries_accessed;
    skip_total += GenerateCandidates(FilterStrategy::kSkip, doc, *world.dd,
                                     *index, tau)
                      .stats.entries_accessed;
    dynamic_total += GenerateCandidates(FilterStrategy::kDynamic, doc,
                                        *world.dd, *index, tau)
                         .stats.entries_accessed;
    lazy_total += GenerateCandidates(FilterStrategy::kLazy, doc, *world.dd,
                                     *index, tau)
                      .stats.entries_accessed;
  }
  EXPECT_LE(skip_total, simple_total);
  EXPECT_LE(lazy_total, dynamic_total);
}

TEST(CandidateGeneratorTest, DynamicUsesIncrementalPrefixes) {
  std::mt19937_64 rng(19);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto index = ClusteredIndex::Build(*world.dd);
  const auto simple =
      GenerateCandidates(FilterStrategy::kSimple, doc, *world.dd, *index, 0.8);
  const auto dynamic = GenerateCandidates(FilterStrategy::kDynamic, doc,
                                          *world.dd, *index, 0.8);
  // Simple rebuilds every prefix; Dynamic rebuilds one and updates the
  // rest.
  EXPECT_GT(simple.stats.prefix_rebuilds, dynamic.stats.prefix_rebuilds);
  EXPECT_EQ(dynamic.stats.prefix_rebuilds, 1u);
  EXPECT_GT(dynamic.stats.prefix_updates, 0u);
  EXPECT_EQ(simple.stats.prefix_updates, 0u);
}

TEST(CandidateGeneratorTest, CandidatesAreDeduped) {
  std::mt19937_64 rng(23);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto index = ClusteredIndex::Build(*world.dd);
  for (FilterStrategy s : kAllStrategies) {
    const auto got =
        GenerateCandidates(s, doc, *world.dd, *index, 0.75);
    const auto set = CandidateSet(got.candidates);
    EXPECT_EQ(set.size(), got.candidates.size())
        << FilterStrategyName(s) << " emitted duplicate candidates";
  }
}

// Regression for the packed-candidate-key collision: the Lazy dedupe key
// used to be (pos << 38 | len << 30 | origin), giving the window length 8
// bits. Any window of 256+ tokens aliased a neighboring shorter window —
// key(p, 259, e) == key(p + 1, 3, e) — and one of the two candidates was
// silently dropped in release builds (debug builds tripped a DCHECK).
//
// This world makes both colliding windows real candidates of the same
// origin: a tiny entity {a, b, c}, a document cycling "a b c" (so every
// window of every length matches the entity's token set exactly), and a
// 300-distinct-token "widener" entity — absent from the document — whose
// only job is to stretch SubstringLengthBounds past 255.
TEST(CandidateGeneratorTest, LongWindowsSurviveDedupeNoKeyCollision) {
  auto dict = std::make_unique<TokenDictionary>();
  const TokenId a = dict->GetOrAdd("a");
  const TokenId b = dict->GetOrAdd("b");
  const TokenId c = dict->GetOrAdd("c");
  TokenSeq widener;
  for (size_t i = 0; i < 300; ++i) {
    widener.push_back(dict->GetOrAdd(testutil::NumberedName("wide", i)));
  }
  std::vector<TokenSeq> entities = {{a, b, c}, widener};
  auto dd = DerivedDictionary::Build(std::move(entities), RuleSet{},
                                     std::move(dict), {});
  ASSERT_TRUE(dd.ok());

  TokenSeq doc_tokens;
  for (int i = 0; i < 90; ++i) doc_tokens.insert(doc_tokens.end(), {a, b, c});
  const Document doc = Document::FromTokens(doc_tokens);
  auto index = ClusteredIndex::Build(**dd);

  const auto simple = GenerateCandidates(FilterStrategy::kSimple, doc, **dd,
                                         *index, 0.85);
  uint32_t max_len = 0;
  for (const Candidate& cand : simple.candidates) {
    max_len = std::max(max_len, cand.len);
  }
  ASSERT_GE(max_len, 256u) << "world failed to produce 256+-token windows";

  for (FilterStrategy s :
       {FilterStrategy::kSkip, FilterStrategy::kDynamic,
        FilterStrategy::kLazy}) {
    const auto got = GenerateCandidates(s, doc, **dd, *index, 0.85);
    EXPECT_EQ(CandidateSet(got.candidates), CandidateSet(simple.candidates))
        << FilterStrategyName(s)
        << " lost candidates on 256+-token windows (key collision)";
  }
}

TEST(CandidateGeneratorTest, EmptyDocumentYieldsNothing) {
  std::mt19937_64 rng(29);
  auto world = MakeRandomWorld(rng);
  const Document doc = Document::FromTokens({});
  auto index = ClusteredIndex::Build(*world.dd);
  for (FilterStrategy s : kAllStrategies) {
    const auto got = GenerateCandidates(s, doc, *world.dd, *index, 0.8);
    EXPECT_TRUE(got.candidates.empty());
  }
}

TEST(CandidateGeneratorTest, DocumentOfOnlyUnknownTokensYieldsNothing) {
  std::mt19937_64 rng(31);
  auto world = MakeRandomWorld(rng);
  // Tokens far outside the interned vocabulary: document-local ids at or
  // above the dictionary size.
  std::string text;
  for (int i = 0; i < 30; ++i) text += " zzz" + std::to_string(i);
  const Document doc =
      Document::FromText(text, Tokenizer(), world.dd->token_dict());
  ASSERT_EQ(doc.num_unknown(), 30u);
  auto index = ClusteredIndex::Build(*world.dd);
  for (FilterStrategy s : kAllStrategies) {
    const auto got = GenerateCandidates(s, doc, *world.dd, *index, 0.8);
    EXPECT_TRUE(got.candidates.empty()) << FilterStrategyName(s);
  }
}

}  // namespace
}  // namespace aeetes
