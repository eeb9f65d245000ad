#include "src/runtime/parallel_extractor.h"

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "src/datagen/generator.h"
#include "src/datagen/profile.h"
#include "src/io/snapshot.h"
#include "src/sim/similarity.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

/// Match::operator== ignores score/witness; byte-identical comparison
/// must not.
bool SameMatch(const Match& a, const Match& b) {
  return a.token_begin == b.token_begin && a.token_len == b.token_len &&
         a.entity == b.entity && a.score == b.score &&
         a.best_derived == b.best_derived;
}

void ExpectSameMatches(const std::vector<Match>& got,
                       const std::vector<Match>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameMatch(got[i], want[i]))
        << context << " match " << i << ": got (" << got[i].token_begin
        << "," << got[i].token_len << "," << got[i].entity << ","
        << got[i].score << ") want (" << want[i].token_begin << ","
        << want[i].token_len << "," << want[i].entity << ","
        << want[i].score << ")";
  }
}

bool SameFilterStats(const FilterStats& a, const FilterStats& b) {
  return a.windows == b.windows && a.substrings == b.substrings &&
         a.prefix_rebuilds == b.prefix_rebuilds &&
         a.prefix_updates == b.prefix_updates &&
         a.entries_accessed == b.entries_accessed &&
         a.length_groups_skipped == b.length_groups_skipped &&
         a.origin_groups_skipped == b.origin_groups_skipped &&
         a.candidates == b.candidates &&
         a.positional_pruned == b.positional_pruned;
}

class ParallelExtractorTest : public testing::Test {
 protected:
  void SetUp() override {
    DatasetProfile profile = PubMedLikeProfile();
    profile.num_entities = 150;
    profile.num_documents = 14;
    profile.num_rules = 60;
    profile.doc_len = 90;
    ds_ = GenerateDataset(profile);
    auto built = Aeetes::BuildFromText(ds_.entity_texts, ds_.rule_lines);
    ASSERT_TRUE(built.ok()) << built.status();
    aeetes_ = std::move(*built);
    for (const std::string& text : ds_.documents) {
      encoded_.push_back(aeetes_->EncodeDocument(text));
    }
  }

  /// One engine per filter strategy, with AeetesOptions::strategy set:
  /// ParallelExtractor runs its engine's strategy. All are loaded from one
  /// snapshot of aeetes_, so they share its token ids and encoded_ is
  /// valid for each.
  std::vector<std::unique_ptr<Aeetes>> EnginePerStrategy() const {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("aeetes_parallel_test_" + std::to_string(::getpid()) + ".snap"))
            .string();
    std::vector<std::unique_ptr<Aeetes>> engines;
    if (!SaveSnapshot(*aeetes_, path).ok()) {
      ADD_FAILURE() << "SaveSnapshot " << path;
      return engines;
    }
    for (FilterStrategy strategy :
         {FilterStrategy::kSimple, FilterStrategy::kSkip,
          FilterStrategy::kDynamic, FilterStrategy::kLazy}) {
      AeetesOptions options = aeetes_->options();
      options.strategy = strategy;
      auto loaded = LoadSnapshot(path, options);
      if (!loaded.ok()) {
        ADD_FAILURE() << loaded.status();
        break;
      }
      engines.push_back(std::move(*loaded));
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);  // the engines keep their mappings
    return engines;
  }

  SyntheticDataset ds_;
  std::unique_ptr<Aeetes> aeetes_;
  std::vector<Document> encoded_;
};

TEST_F(ParallelExtractorTest, MatchesSequentialLoopForEveryStrategy) {
  const double tau = 0.8;
  const auto engines = EnginePerStrategy();
  ASSERT_EQ(engines.size(), 4u);
  for (const auto& engine : engines) {
    const FilterStrategy strategy = engine->options().strategy;
    // Sequential reference: per-document results and aggregate stats.
    std::vector<Aeetes::ExtractionResult> serial;
    FilterStats serial_filter;
    VerifyStats serial_verify;
    uint64_t serial_matches = 0;
    for (const Document& doc : encoded_) {
      auto r = aeetes_->ExtractWithStrategy(doc, tau, strategy);
      ASSERT_TRUE(r.ok());
      serial_filter += r->filter_stats;
      serial_verify += r->verify_stats;
      serial_matches += r->matches.size();
      serial.push_back(std::move(*r));
    }

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      const std::string context = std::string(FilterStrategyName(strategy)) +
                                  " threads=" + std::to_string(threads);
      ParallelExtractorOptions opts;
      opts.num_threads = threads;
      auto extractor = ParallelExtractor::Create(*engine, opts);
      ASSERT_TRUE(extractor.ok()) << context;
      auto result = (*extractor)->ExtractAll(encoded_, tau);
      ASSERT_TRUE(result.ok()) << context;
      ASSERT_EQ(result->per_document.size(), encoded_.size()) << context;
      for (size_t d = 0; d < encoded_.size(); ++d) {
        const DocumentExtraction& de = result->per_document[d];
        EXPECT_EQ(de.doc, d) << context;
        EXPECT_EQ(de.chunks, 1u) << context;
        ExpectSameMatches(de.matches, serial[d].matches,
                          context + " doc=" + std::to_string(d));
        EXPECT_TRUE(SameFilterStats(de.filter_stats, serial[d].filter_stats))
            << context;
        EXPECT_EQ(de.verify_stats.verified, serial[d].verify_stats.verified)
            << context;
      }
      EXPECT_TRUE(SameFilterStats(result->filter_stats, serial_filter))
          << context;
      EXPECT_EQ(result->verify_stats.verified, serial_verify.verified)
          << context;
      EXPECT_EQ(result->verify_stats.matched, serial_verify.matched)
          << context;
      EXPECT_EQ(result->total_matches, serial_matches) << context;
    }
  }
}

TEST_F(ParallelExtractorTest, ExtractorIsReusableAndDeterministic) {
  ParallelExtractorOptions opts;
  opts.num_threads = 4;
  opts.queue_capacity = 4;  // force Submit-side backpressure
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  auto first = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(first.ok());
  auto second = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->per_document.size(), second->per_document.size());
  for (size_t d = 0; d < first->per_document.size(); ++d) {
    ExpectSameMatches(second->per_document[d].matches,
                      first->per_document[d].matches,
                      "doc=" + std::to_string(d));
  }
  EXPECT_EQ(first->total_matches, second->total_matches);
}

TEST_F(ParallelExtractorTest, PublishesRuntimeGaugesAfterEveryRun) {
  ParallelExtractorOptions opts;
  opts.num_threads = 2;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  auto result = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(result.ok());

  // ExtractAll publishes the pool snapshot into the engine registry.
  const MetricsRegistry& registry = aeetes_->metrics();
  const Gauge* submitted = registry.FindGauge("runtime.pool.submitted");
  const Gauge* executed = registry.FindGauge("runtime.pool.executed");
  ASSERT_NE(submitted, nullptr);
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(submitted->value(),
            static_cast<int64_t>(encoded_.size()));  // one task per doc
  EXPECT_EQ(executed->value(), submitted->value());
  EXPECT_NE(registry.FindGauge("runtime.pool.threads"), nullptr);
  EXPECT_NE(registry.FindGauge("runtime.worker.0.busy_ppm"), nullptr);
  EXPECT_NE(registry.FindGauge("runtime.worker.1.busy_ppm"), nullptr);

  // PoolStats mirrors the gauges.
  const ThreadPool::Stats stats = (*extractor)->PoolStats();
  EXPECT_EQ(static_cast<int64_t>(stats.submitted), submitted->value());

  // A second run refreshes the same gauges in place.
  ASSERT_TRUE((*extractor)->ExtractAll(encoded_, 0.8).ok());
  EXPECT_EQ(submitted->value(),
            static_cast<int64_t>(2 * encoded_.size()));
}

TEST_F(ParallelExtractorTest, CollectsOneTracePerWorker) {
  ParallelExtractorOptions opts;
  opts.num_threads = 3;
  opts.collect_traces = true;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  auto result = (*extractor)->ExtractAll(encoded_, 0.8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->worker_traces.size(), 3u);
  size_t spans = 0;
  for (const TraceRecorder& tr : result->worker_traces) {
    spans += tr.spans().size();
  }
  EXPECT_GT(spans, 0u);
}

TEST_F(ParallelExtractorTest, EmptyCorpusAndBadThreshold) {
  auto extractor = ParallelExtractor::Create(*aeetes_, {});
  ASSERT_TRUE(extractor.ok());
  auto empty = (*extractor)->ExtractAll({}, 0.8);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->per_document.empty());
  EXPECT_EQ(empty->total_matches, 0u);
  EXPECT_FALSE((*extractor)->ExtractAll(encoded_, 0.0).ok());
  EXPECT_FALSE((*extractor)->ExtractAll(encoded_, 1.5).ok());
}

/// A Document field by field, token texts included.
void ExpectSameDocument(const Document& got, const Document& want,
                        const TokenDictionary& dict,
                        const std::string& context) {
  EXPECT_EQ(got.text(), want.text()) << context;
  ASSERT_EQ(got.tokens(), want.tokens()) << context;
  EXPECT_EQ(got.num_unknown(), want.num_unknown()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.TokenSpan(i), want.TokenSpan(i)) << context << " i=" << i;
    EXPECT_EQ(got.TokenText(got.tokens()[i], dict),
              want.TokenText(want.tokens()[i], dict))
        << context << " i=" << i;
  }
}

/// For each engine, ExtractTexts must equal EncodeDocument on every text
/// followed by ExtractAll on the result: Documents, per-document matches
/// and stats, and the aggregates.
void ExpectTextEntryMatchesDocumentEntry(
    const std::vector<std::unique_ptr<Aeetes>>& engines,
    const std::vector<std::string>& texts, double tau,
    const ParallelExtractorOptions& opts, const std::string& context) {
  ASSERT_FALSE(engines.empty()) << context;
  for (const auto& engine : engines) {
    const Aeetes& aeetes = *engine;
    const std::string ctx =
        context + " " +
        std::string(FilterStrategyName(aeetes.options().strategy));
    std::vector<Document> encoded;
    for (const std::string& text : texts) {
      encoded.push_back(aeetes.EncodeDocument(text));
    }
    auto extractor = ParallelExtractor::Create(aeetes, opts);
    ASSERT_TRUE(extractor.ok()) << ctx;
    auto want = (*extractor)->ExtractAll(encoded, tau);
    ASSERT_TRUE(want.ok()) << ctx;
    EXPECT_GT(want->total_matches, 0u)
        << ctx << ": the texts must exercise verification";
    auto got = (*extractor)->ExtractTexts(texts, tau);
    ASSERT_TRUE(got.ok()) << ctx;

    ASSERT_EQ(got->documents.size(), texts.size()) << ctx;
    const ParallelExtraction& extraction = got->extraction;
    ASSERT_EQ(extraction.per_document.size(), texts.size()) << ctx;
    for (size_t d = 0; d < texts.size(); ++d) {
      const std::string doc_ctx = ctx + " doc=" + std::to_string(d);
      ExpectSameDocument(got->documents[d], encoded[d],
                         aeetes.derived_dictionary().token_dict(), doc_ctx);
      const DocumentExtraction& g = extraction.per_document[d];
      const DocumentExtraction& w = want->per_document[d];
      EXPECT_EQ(g.doc, w.doc) << doc_ctx;
      EXPECT_EQ(g.chunks, w.chunks) << doc_ctx;
      ExpectSameMatches(g.matches, w.matches, doc_ctx);
      EXPECT_TRUE(SameFilterStats(g.filter_stats, w.filter_stats)) << doc_ctx;
      EXPECT_EQ(g.verify_stats.verified, w.verify_stats.verified) << doc_ctx;
      EXPECT_EQ(g.verify_stats.matched, w.verify_stats.matched) << doc_ctx;
    }
    EXPECT_TRUE(SameFilterStats(extraction.filter_stats, want->filter_stats))
        << ctx;
    EXPECT_EQ(extraction.verify_stats.verified, want->verify_stats.verified)
        << ctx;
    EXPECT_EQ(extraction.verify_stats.matched, want->verify_stats.matched)
        << ctx;
    EXPECT_EQ(extraction.total_matches, want->total_matches) << ctx;
  }
}

TEST_F(ParallelExtractorTest, TextEntryEqualsEncodeThenExtract) {
  std::vector<std::string> texts = ds_.documents;
  // Documents made only of words the dictionary has never seen, one with
  // repeats (a repeated unknown word keeps its per-document id), and an
  // empty one.
  texts.push_back("qzxv wvkkq plorbt qzxv ytrewq plorbt qzxv");
  texts.push_back("zzyzx");
  texts.push_back("");
  // Unknown words mixed into a known document.
  texts.push_back("qzxv " + ds_.documents.front() + " wvkkq");
  const auto engines = EnginePerStrategy();
  for (size_t threads : {1u, 2u, 4u}) {
    ParallelExtractorOptions opts;
    opts.num_threads = threads;
    ExpectTextEntryMatchesDocumentEntry(
        engines, texts, 0.8, opts, "threads=" + std::to_string(threads));
  }
}

TEST_F(ParallelExtractorTest, TextEntryChunksOversizedDocuments) {
  std::string long_text;
  for (const std::string& text : ds_.documents) {
    if (!long_text.empty()) long_text += ' ';
    long_text += text;
  }
  const std::vector<std::string> texts = {ds_.documents.front(), long_text,
                                          "qzxv wvkkq plorbt"};
  const double tau = 0.8;
  const DerivedDictionary& dd = aeetes_->derived_dictionary();
  const size_t max_window =
      SubstringLengthBounds(aeetes_->options().metric, dd.min_set_size(),
                            dd.max_set_size(), tau)
          .hi;
  ParallelExtractorOptions opts;
  opts.num_threads = 4;
  opts.max_document_tokens = max_window + 9;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  auto result = (*extractor)->ExtractTexts(texts, tau);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->extraction.per_document[1].chunks, 1u);
  ExpectTextEntryMatchesDocumentEntry(EnginePerStrategy(), texts, tau, opts,
                                      "chunked");
}

TEST_F(ParallelExtractorTest, TextEntryEmptyAndBadThreshold) {
  const auto engines = EnginePerStrategy();
  ASSERT_EQ(engines.size(), 4u);
  for (const auto& engine : engines) {
    const char* context = FilterStrategyName(engine->options().strategy);
    auto extractor = ParallelExtractor::Create(*engine, {});
    ASSERT_TRUE(extractor.ok()) << context;
    auto empty = (*extractor)->ExtractTexts({}, 0.8);
    ASSERT_TRUE(empty.ok()) << context;
    EXPECT_TRUE(empty->documents.empty()) << context;
    EXPECT_TRUE(empty->extraction.per_document.empty()) << context;
    EXPECT_FALSE((*extractor)->ExtractTexts(ds_.documents, 0.0).ok())
        << context;
  }
}

class ChunkingTest : public ParallelExtractorTest {
 protected:
  size_t MaxWindow(double tau) const {
    const DerivedDictionary& dd = aeetes_->derived_dictionary();
    return SubstringLengthBounds(aeetes_->options().metric,
                                 dd.min_set_size(), dd.max_set_size(), tau)
        .hi;
  }
};

TEST_F(ChunkingTest, LayoutCoversDocumentWithExactOverlap) {
  const double tau = 0.8;
  const size_t max_window = MaxWindow(tau);
  ASSERT_GT(max_window, 0u);
  const size_t limit = max_window + 3;
  ParallelExtractorOptions opts;
  opts.num_threads = 1;
  opts.max_document_tokens = limit;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());

  for (size_t n : {size_t{0}, limit - 1, limit, limit + 1, 3 * limit,
                   10 * limit + 7}) {
    const auto layout = (*extractor)->ChunkLayout(n, tau);
    ASSERT_FALSE(layout.empty()) << "n=" << n;
    if (n <= limit) {
      EXPECT_EQ(layout.size(), 1u) << "n=" << n;
      EXPECT_EQ(layout[0], (std::pair<size_t, size_t>{0, n}));
      continue;
    }
    EXPECT_EQ(layout.front().first, 0u);
    EXPECT_EQ(layout.back().first + layout.back().second, n) << "n=" << n;
    for (size_t c = 0; c < layout.size(); ++c) {
      EXPECT_LE(layout[c].second, limit) << "n=" << n << " chunk=" << c;
      if (c + 1 < layout.size()) {
        EXPECT_EQ(layout[c].second, limit);
        // Adjacent chunks share exactly max_window - 1 tokens, so every
        // window of <= max_window tokens fits inside one chunk.
        EXPECT_EQ(layout[c + 1].first,
                  layout[c].first + limit - (max_window - 1))
            << "n=" << n << " chunk=" << c;
      }
    }
  }
}

TEST_F(ChunkingTest, LimitBelowMaxWindowRunsWhole) {
  const double tau = 0.8;
  const size_t max_window = MaxWindow(tau);
  ASSERT_GT(max_window, 1u);
  ParallelExtractorOptions opts;
  opts.num_threads = 1;
  opts.max_document_tokens = max_window - 1;
  auto extractor = ParallelExtractor::Create(*aeetes_, opts);
  ASSERT_TRUE(extractor.ok());
  EXPECT_EQ((*extractor)->ChunkLayout(10 * max_window, tau).size(), 1u);
}

TEST_F(ChunkingTest, ChunkedIsBitIdenticalToUnchunked) {
  // One long document that genuinely splits: concatenate the corpus.
  std::string long_text;
  for (const std::string& text : ds_.documents) {
    if (!long_text.empty()) long_text += ' ';
    long_text += text;
  }
  std::vector<Document> docs;
  docs.push_back(aeetes_->EncodeDocument(long_text));

  for (double tau : {0.6, 0.8, 1.0}) {
    ParallelExtractorOptions whole_opts;
    whole_opts.num_threads = 2;
    auto whole = ParallelExtractor::Create(*aeetes_, whole_opts);
    ASSERT_TRUE(whole.ok());
    auto reference = (*whole)->ExtractAll(docs, tau);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(reference->per_document[0].chunks, 1u);

    const size_t max_window = MaxWindow(tau);
    for (size_t limit :
         {max_window, max_window + 1, max_window + 9, 2 * max_window,
          docs[0].size() / 2}) {
      if (limit < max_window) continue;
      const std::string context = "tau=" + std::to_string(tau) +
                                  " limit=" + std::to_string(limit);
      ParallelExtractorOptions opts;
      opts.num_threads = 4;
      opts.max_document_tokens = limit;
      auto chunked = ParallelExtractor::Create(*aeetes_, opts);
      ASSERT_TRUE(chunked.ok()) << context;
      auto result = (*chunked)->ExtractAll(docs, tau);
      ASSERT_TRUE(result.ok()) << context;
      if (docs[0].size() > limit) {
        EXPECT_GT(result->per_document[0].chunks, 1u) << context;
      }
      ExpectSameMatches(result->per_document[0].matches,
                        reference->per_document[0].matches, context);
      EXPECT_EQ(result->total_matches, reference->total_matches) << context;
    }
  }
}

TEST(ChunkBoundaryTest, StraddlingMatchFoundExactlyOnce) {
  // A hand-built document where the only match straddles a chunk
  // boundary: chunk 0 is [0, 10), the entity sits at tokens [9, 12).
  const std::vector<std::string> entities = {"alpha beta gamma"};
  auto built = Aeetes::BuildFromText(entities, {});
  ASSERT_TRUE(built.ok()) << built.status();
  auto& aeetes = *built;

  std::string text;
  for (int i = 0; i < 9; ++i) text += "noise" + std::to_string(i) + " ";
  text += "alpha beta gamma";
  for (int i = 9; i < 15; ++i) text += " noise" + std::to_string(i);
  std::vector<Document> docs;
  docs.push_back(aeetes->EncodeDocument(text));
  ASSERT_EQ(docs[0].size(), 18u);

  ParallelExtractorOptions opts;
  opts.num_threads = 2;
  opts.max_document_tokens = 10;
  auto extractor = ParallelExtractor::Create(*aeetes, opts);
  ASSERT_TRUE(extractor.ok());

  // The layout must actually straddle: [9, 12) crosses the end of the
  // first chunk and lies inside the second.
  const auto layout = (*extractor)->ChunkLayout(docs[0].size(), 1.0);
  ASSERT_GT(layout.size(), 1u);
  ASSERT_LT(layout[0].first + layout[0].second, 12u);

  auto result = (*extractor)->ExtractAll(docs, 1.0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_document[0].matches.size(), 1u);
  const Match& m = result->per_document[0].matches[0];
  EXPECT_EQ(m.token_begin, 9u);
  EXPECT_EQ(m.token_len, 3u);
  EXPECT_EQ(m.entity, 0u);
  EXPECT_EQ(result->total_matches, 1u);
}

}  // namespace
}  // namespace aeetes
