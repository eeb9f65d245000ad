// Document encoding on the serving path is read-only: a served engine's
// token dictionary never grows with traffic, however many never-seen words
// clients send, and a background compaction may read that dictionary while
// such requests run. The compaction test must be clean under TSan (tsan
// preset).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/server/collection_manager.h"
#include "src/server/request_batcher.h"

namespace aeetes {
namespace server {
namespace {

const std::vector<std::string> kEntities = {
    "university of california berkeley",
    "massachusetts institute of technology",
    "eidgenossische technische hochschule zurich",
};

const std::vector<std::string> kRules = {
    "uc <=> university of california",
    "mit <=> massachusetts institute of technology",
    "eth <=> eidgenossische technische hochschule",
};

/// Polls until `name` publishes `version` (compactions are async).
testing::AssertionResult WaitForVersion(CollectionManager& manager,
                                        const std::string& name,
                                        uint64_t version) {
  for (int i = 0; i < 1000; ++i) {
    auto engine = manager.Acquire(name);
    if (engine.ok() && (*engine)->version >= version) {
      return testing::AssertionSuccess();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return testing::AssertionFailure()
         << name << " never reached version " << version;
}

/// A document of random lower-case words, almost all unknown to any
/// dictionary, with one known mention planted in every tenth.
std::string RandomVocabularyText(std::mt19937_64& rng, size_t index) {
  std::string text;
  for (int w = 0; w < 20; ++w) {
    if (!text.empty()) text += ' ';
    const size_t len = 3 + rng() % 6;
    for (size_t c = 0; c < len; ++c) {
      text += static_cast<char>('a' + rng() % 26);
    }
  }
  if (index % 10 == 0) text += " mit";
  return text;
}

TEST(ServingEncodingTest, CompactionBesideUnknownWordTrafficIsRaceFree) {
  CollectionManager manager{CollectionManager::Options{}};
  ASSERT_TRUE(manager.Create("inst", kEntities, kRules).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> extractions{0};
  std::thread extractor([&] {
    uint64_t next_word = 0;
    while (!stop.load(std::memory_order_acquire)) {
      auto engine = manager.Acquire("inst");
      ASSERT_TRUE(engine.ok()) << engine.status();
      // Every request carries words no dictionary has seen before.
      std::string text = "uc berkeley";
      for (int i = 0; i < 8; ++i) {
        text += " novel";
        text += std::to_string(next_word++);
      }
      const Document doc = (*engine)->aeetes->EncodeDocument(text);
      auto result = (*engine)->aeetes->Extract(doc, /*tau=*/0.9);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_FALSE(result->matches.empty());
      extractions.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int round = 0; round < 3; ++round) {
    std::string entity = "stanford university campus ";
    entity += std::to_string(round);
    ASSERT_TRUE(manager.UpsertEntities("inst", {entity}).ok());
    auto target = manager.Compact("inst");
    ASSERT_TRUE(target.ok()) << target.status();
    ASSERT_TRUE(WaitForVersion(manager, "inst", *target));
  }
  stop.store(true, std::memory_order_release);
  extractor.join();
  EXPECT_GT(extractions.load(), 0u);
}

TEST(ServingEncodingTest, ServingRandomVocabularyDoesNotGrowDictionary) {
  CollectionManager manager{CollectionManager::Options{}};
  ASSERT_TRUE(manager.Create("inst", kEntities, kRules).ok());
  auto engine = manager.Acquire("inst");
  ASSERT_TRUE(engine.ok());
  const TokenDictionary& dict =
      (*engine)->aeetes->derived_dictionary().token_dict();
  const size_t dict_before = dict.size();

  constexpr size_t kDocs = 1000;
  constexpr size_t kDocsPerJob = 10;
  std::atomic<size_t> served{0};
  std::atomic<size_t> matched{0};
  std::atomic<size_t> failed{0};
  {
    MetricsRegistry registry;
    RequestBatcher batcher(registry, RequestBatcher::Options{});
    std::mt19937_64 rng(7);
    for (size_t j = 0; j < kDocs / kDocsPerJob; ++j) {
      RequestBatcher::Job job;
      job.engine = *engine;
      job.tau = 0.8;
      for (size_t d = 0; d < kDocsPerJob; ++d) {
        job.docs.push_back(RandomVocabularyText(rng, j * kDocsPerJob + d));
      }
      job.done = [&](Result<RequestBatcher::Outcome> outcome) {
        if (!outcome.ok()) {
          failed.fetch_add(1);
          return;
        }
        served.fetch_add(outcome->documents.size());
        for (const DocumentExtraction& r : outcome->results) {
          matched.fetch_add(r.matches.empty() ? 0 : 1);
        }
      };
      ASSERT_TRUE(batcher.Submit(std::move(job)).ok());
    }
    batcher.Drain();
  }
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(served.load(), kDocs);
  EXPECT_GE(matched.load(), kDocs / 10);
  EXPECT_EQ(dict.size(), dict_before);
}

}  // namespace
}  // namespace server
}  // namespace aeetes
