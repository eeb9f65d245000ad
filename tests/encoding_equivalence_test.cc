// Read-only document encoding property: a document token the dictionary
// does not know gets a document-local, frequency-0 id instead of being
// interned. Extraction must not notice the difference. Engine (a) is built
// from a dictionary into which every document word was interned before
// Freeze — exactly what interning at encode time used to produce — and
// engine (b) is built plainly; both must report identical (entity, span,
// score, best_derived) and identical filter work for every strategy and
// threshold, frozen-only, with a delta overlay whose upserts use words
// the frozen dictionary has never seen, and in ParallelExtractor chunk
// mode.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/core/aeetes.h"
#include "src/core/delta_layer.h"
#include "src/runtime/parallel_extractor.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

constexpr FilterStrategy kStrategies[] = {
    FilterStrategy::kSimple, FilterStrategy::kSkip, FilterStrategy::kDynamic,
    FilterStrategy::kLazy};
constexpr double kTaus[] = {0.5, 0.75, 0.9, 1.0};

struct Scenario {
  std::vector<std::string> entities;
  std::vector<std::string> rules;
  /// Upserted into the overlay; built partly from novel words.
  std::vector<std::string> upserts;
  /// Removed from the frozen dictionary through the overlay.
  std::vector<std::string> removals;
  std::vector<std::string> docs;
  std::vector<std::string> mentions;  // LookupString inputs
};

Scenario MakeScenario(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t vocab = 16;
  auto word = [](size_t i) { return testutil::NumberedName("w", i); };
  // Novel words occur only in upserts and documents; noise words only in
  // documents. Neither is in the frozen dictionary.
  auto novel = [](size_t i) { return testutil::NumberedName("n", i); };
  auto noise = [](size_t i) { return testutil::NumberedName("x", i); };
  auto phrase = [&](size_t max_len, bool allow_novel) {
    const size_t len = 1 + rng() % max_len;
    std::string text;
    for (size_t j = 0; j < len; ++j) {
      if (j > 0) text += ' ';
      text += allow_novel && rng() % 2 == 0 ? novel(rng() % 5)
                                            : word(rng() % vocab);
    }
    return text;
  };

  Scenario s;
  std::set<std::string> seen;
  while (s.entities.size() < 12) {
    std::string e = phrase(4, /*allow_novel=*/false);
    if (seen.insert(e).second) s.entities.push_back(std::move(e));
  }
  for (size_t r = 0; r < 4; ++r) {
    std::string line = word(r);
    line += " <=> ";
    line += word(vocab - 1 - r);
    line += ' ';
    line += word(4 + rng() % (vocab - 4));
    s.rules.push_back(std::move(line));
  }
  while (s.upserts.size() < 4) {
    std::string e = phrase(3, /*allow_novel=*/true);
    if (seen.insert(e).second) s.upserts.push_back(std::move(e));
  }
  s.removals.push_back(s.entities[rng() % s.entities.size()]);

  for (size_t d = 0; d < 4; ++d) {
    std::string text;
    const size_t len = 40 + rng() % 40;
    for (size_t i = 0; i < len; ++i) {
      if (!text.empty()) text += ' ';
      switch (rng() % 6) {
        case 0:
          text += s.entities[rng() % s.entities.size()];
          break;
        case 1:
          text += s.upserts[rng() % s.upserts.size()];
          break;
        case 2:
          text += novel(rng() % 5);
          break;
        case 3:
          text += noise(rng() % 30);
          break;
        default:
          text += word(rng() % vocab);
      }
    }
    s.docs.push_back(std::move(text));
  }
  for (size_t m = 0; m < 8; ++m) {
    std::string mention = s.entities[rng() % s.entities.size()];
    if (m % 2 == 1) {
      mention += ' ';
      mention += noise(rng() % 30);
    }
    s.mentions.push_back(std::move(mention));
  }
  return s;
}

/// Engine (a): entity and rule words interned as BuildFromText would, then
/// every document and mention word, all before Build freezes the
/// dictionary.
std::unique_ptr<Aeetes> BuildInterned(const Scenario& s) {
  const Tokenizer tokenizer;
  auto dict = std::make_unique<TokenDictionary>();
  std::vector<TokenSeq> entities;
  for (const std::string& e : s.entities) {
    entities.push_back(dict->Encode(tokenizer.TokenizeToStrings(e)));
  }
  RuleSet rules;
  for (const std::string& line : s.rules) {
    EXPECT_TRUE(rules.AddFromText(line, tokenizer, *dict).ok()) << line;
  }
  for (const auto* texts : {&s.docs, &s.mentions}) {
    for (const std::string& text : *texts) {
      [[maybe_unused]] const TokenSeq ids =
          dict->Encode(tokenizer.TokenizeToStrings(text));
    }
  }
  auto built = Aeetes::Build(std::move(entities), rules, std::move(dict));
  EXPECT_TRUE(built.ok()) << built.status();
  return built.ok() ? std::move(*built) : nullptr;
}

std::unique_ptr<Aeetes> BuildPlain(const Scenario& s) {
  auto built = Aeetes::BuildFromText(s.entities, s.rules);
  EXPECT_TRUE(built.ok()) << built.status();
  return built.ok() ? std::move(*built) : nullptr;
}

void AttachOverlay(const Scenario& s, Aeetes& engine) {
  DeltaLayer::Options options;
  options.derivation = engine.options().derivation;
  options.tokenizer = engine.options().tokenizer;
  auto delta = DeltaLayer::Create(engine.derived_dictionary(), s.rules,
                                  options);
  ASSERT_TRUE(delta.ok()) << delta.status();
  ASSERT_TRUE((*delta)->UpsertEntities(s.upserts).ok());
  ASSERT_TRUE((*delta)->RemoveEntities(s.removals).ok());
  engine.AttachDelta(*delta);
}

void ExpectSameMatches(const std::vector<Match>& a,
                       const std::vector<Match>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].token_begin == b[i].token_begin &&
                a[i].token_len == b[i].token_len &&
                a[i].entity == b[i].entity && a[i].score == b[i].score &&
                a[i].best_derived == b[i].best_derived)
        << context << " match " << i << ": (" << a[i].token_begin << ","
        << a[i].token_len << "," << a[i].entity << "," << a[i].score << ","
        << a[i].best_derived << ") vs (" << b[i].token_begin << ","
        << b[i].token_len << "," << b[i].entity << "," << b[i].score << ","
        << b[i].best_derived << ")";
  }
}

void ExpectSameFilterWork(const FilterStats& a, const FilterStats& b,
                          const std::string& context) {
  EXPECT_EQ(a.windows, b.windows) << context;
  EXPECT_EQ(a.substrings, b.substrings) << context;
  EXPECT_EQ(a.entries_accessed, b.entries_accessed) << context;
  EXPECT_EQ(a.candidates, b.candidates) << context;
}

/// Extracts every document with both engines and compares. Returns the
/// number of matches against entities past the frozen origins (overlay
/// upserts), so callers can check the overlay actually participated.
size_t ExpectEquivalent(const Scenario& s, const Aeetes& interned,
                        const Aeetes& plain) {
  size_t delta_matches = 0;
  for (size_t d = 0; d < s.docs.size(); ++d) {
    const Document da = interned.EncodeDocument(s.docs[d]);
    const Document db = plain.EncodeDocument(s.docs[d]);
    EXPECT_EQ(da.num_unknown(), 0u);
    EXPECT_GT(db.num_unknown(), 0u);
    for (const FilterStrategy strategy : kStrategies) {
      for (const double tau : kTaus) {
        const std::string context =
            "doc " + std::to_string(d) + " " +
            FilterStrategyName(strategy) + " tau " + std::to_string(tau);
        auto ra = interned.ExtractWithStrategy(da, tau, strategy);
        auto rb = plain.ExtractWithStrategy(db, tau, strategy);
        EXPECT_TRUE(ra.ok() && rb.ok()) << context;
        if (!ra.ok() || !rb.ok()) continue;
        ExpectSameMatches(ra->matches, rb->matches, context);
        ExpectSameFilterWork(ra->filter_stats, rb->filter_stats, context);
        for (const Match& m : rb->matches) {
          if (m.entity >= plain.derived_dictionary().num_origins()) {
            ++delta_matches;
          }
        }
      }
    }
  }
  return delta_matches;
}

class EncodingEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(EncodingEquivalenceTest, FrozenOnly) {
  const Scenario s = MakeScenario(GetParam());
  const auto interned = BuildInterned(s);
  const auto plain = BuildPlain(s);
  ASSERT_TRUE(interned != nullptr && plain != nullptr);
  ExpectEquivalent(s, *interned, *plain);
}

TEST_P(EncodingEquivalenceTest, WithOverlayUsingNovelWords) {
  const Scenario s = MakeScenario(GetParam());
  const auto interned = BuildInterned(s);
  const auto plain = BuildPlain(s);
  ASSERT_TRUE(interned != nullptr && plain != nullptr);
  AttachOverlay(s, *interned);
  AttachOverlay(s, *plain);
  EXPECT_GT(ExpectEquivalent(s, *interned, *plain), 0u);
}

TEST_P(EncodingEquivalenceTest, ParallelChunkMode) {
  const Scenario s = MakeScenario(GetParam());
  const auto interned = BuildInterned(s);
  const auto plain = BuildPlain(s);
  ASSERT_TRUE(interned != nullptr && plain != nullptr);
  AttachOverlay(s, *interned);
  AttachOverlay(s, *plain);
  ParallelExtractorOptions options;
  options.num_threads = 2;
  options.max_document_tokens = 16;
  auto pa = ParallelExtractor::Create(*interned, options);
  auto pb = ParallelExtractor::Create(*plain, options);
  ASSERT_TRUE(pa.ok() && pb.ok());
  std::vector<Document> da;
  std::vector<Document> db;
  for (const std::string& text : s.docs) {
    da.push_back(interned->EncodeDocument(text));
    db.push_back(plain->EncodeDocument(text));
  }
  for (const FilterStrategy strategy : kStrategies) {
    for (const double tau : kTaus) {
      auto ra = (*pa)->ExtractAllWithStrategy(da, tau, strategy);
      auto rb = (*pb)->ExtractAllWithStrategy(db, tau, strategy);
      ASSERT_TRUE(ra.ok() && rb.ok());
      for (size_t d = 0; d < s.docs.size(); ++d) {
        const std::string context =
            "doc " + std::to_string(d) + " " +
            FilterStrategyName(strategy) + " tau " + std::to_string(tau);
        EXPECT_GT(rb->per_document[d].chunks, 1u) << context;
        ExpectSameMatches(ra->per_document[d].matches,
                          rb->per_document[d].matches, context);
      }
    }
  }
}

TEST_P(EncodingEquivalenceTest, LookupString) {
  const Scenario s = MakeScenario(GetParam());
  const auto interned = BuildInterned(s);
  const auto plain = BuildPlain(s);
  ASSERT_TRUE(interned != nullptr && plain != nullptr);
  size_t hits = 0;
  for (const std::string& mention : s.mentions) {
    for (const double tau : kTaus) {
      auto ha = interned->LookupString(mention, tau, 100);
      auto hb = plain->LookupString(mention, tau, 100);
      ASSERT_TRUE(ha.ok() && hb.ok());
      hits += hb->size();
      ASSERT_EQ(ha->size(), hb->size()) << mention << " tau " << tau;
      for (size_t i = 0; i < ha->size(); ++i) {
        EXPECT_EQ((*ha)[i].entity, (*hb)[i].entity) << mention;
        EXPECT_EQ((*ha)[i].score, (*hb)[i].score) << mention;
        EXPECT_EQ((*ha)[i].best_derived, (*hb)[i].best_derived) << mention;
      }
    }
  }
  EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingEquivalenceTest,
                         testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace aeetes
