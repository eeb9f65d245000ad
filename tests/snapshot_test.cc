#include "src/io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "src/datagen/generator.h"
#include "src/datagen/profile.h"
#include "tests/test_util.h"

#ifndef AEETES_DATA_DIR
#define AEETES_DATA_DIR "data"
#endif

namespace aeetes {
namespace {

using testutil::Sorted;

std::vector<TokenId> Copy(Span<TokenId> s) {
  return std::vector<TokenId>(s.begin(), s.end());
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class SnapshotTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("aeetes_snap_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

/// Structural equality of two derived dictionaries through the view API.
void ExpectSameDictionary(const DerivedDictionary& dd_a,
                          const DerivedDictionary& dd_b) {
  ASSERT_EQ(dd_a.num_origins(), dd_b.num_origins());
  ASSERT_EQ(dd_a.num_derived(), dd_b.num_derived());
  EXPECT_EQ(dd_a.min_set_size(), dd_b.min_set_size());
  EXPECT_EQ(dd_a.max_set_size(), dd_b.max_set_size());
  EXPECT_DOUBLE_EQ(dd_a.avg_applicable_rules(), dd_b.avg_applicable_rules());
  for (DerivedId d = 0; d < dd_a.num_derived(); ++d) {
    const DerivedView a = dd_a.derived(d);
    const DerivedView b = dd_b.derived(d);
    EXPECT_EQ(Copy(a.tokens), Copy(b.tokens));
    EXPECT_EQ(Copy(a.ordered_set), Copy(b.ordered_set));
    EXPECT_EQ(a.origin, b.origin);
  }
  for (EntityId e = 0; e < dd_a.num_origins(); ++e) {
    EXPECT_EQ(Copy(dd_a.origin_entity(e)), Copy(dd_b.origin_entity(e)));
  }
}

/// Behavioural equality: both engines extract the same (entity, span,
/// score) sets from every document at every threshold.
void ExpectSameExtraction(Aeetes& a, Aeetes& b,
                          const std::vector<std::string>& documents) {
  for (const std::string& text : documents) {
    Document doc_a = a.EncodeDocument(text);
    Document doc_b = b.EncodeDocument(text);
    for (double tau : {0.7, 0.85}) {
      auto ra = a.Extract(doc_a, tau);
      auto rb = b.Extract(doc_b, tau);
      ASSERT_TRUE(ra.ok());
      ASSERT_TRUE(rb.ok());
      const auto ma = Sorted(ra->matches);
      const auto mb = Sorted(rb->matches);
      ASSERT_EQ(ma.size(), mb.size()) << "tau=" << tau;
      for (size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma[i].token_begin, mb[i].token_begin);
        EXPECT_EQ(ma[i].token_len, mb[i].token_len);
        EXPECT_EQ(ma[i].entity, mb[i].entity);
        EXPECT_DOUBLE_EQ(ma[i].score, mb[i].score) << "tau=" << tau;
      }
    }
  }
}

SyntheticDataset SmallDataset() {
  DatasetProfile profile = PubMedLikeProfile();
  profile.num_entities = 200;
  profile.num_documents = 3;
  profile.num_rules = 80;
  profile.doc_len = 120;
  return GenerateDataset(profile);
}

TEST_F(SnapshotTest, RoundTripPreservesExtractionResults) {
  const SyntheticDataset ds = SmallDataset();
  auto built = Aeetes::BuildFromText(ds.entity_texts, ds.rule_lines);
  ASSERT_TRUE(built.ok());
  auto& original = *built;

  ASSERT_TRUE(SaveSnapshot(*original, path_).ok());
  auto loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE((*loaded)->image().stats().mmap_backed);

  ExpectSameDictionary(original->derived_dictionary(),
                       (*loaded)->derived_dictionary());
  ExpectSameExtraction(*original, **loaded, ds.documents);
}

TEST_F(SnapshotTest, PreservesRuleWeights) {
  auto dict = std::make_unique<TokenDictionary>();
  const TokenId big = dict->GetOrAdd("big");
  const TokenId apple = dict->GetOrAdd("apple");
  const TokenId ny = dict->GetOrAdd("ny");
  RuleSet rules;
  ASSERT_TRUE(rules.Add({big, apple}, {ny}, 0.7).ok());
  AeetesOptions options;
  options.weighted = true;
  auto built = Aeetes::Build({{big, apple}}, rules, std::move(dict), options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveSnapshot(**built, path_).ok());
  auto loaded = LoadSnapshot(path_, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Document doc = (*loaded)->EncodeDocument("ny pizza");
  auto result = (*loaded)->Extract(doc, 0.6);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->matches.size(), 1u);
  EXPECT_DOUBLE_EQ(result->matches[0].score, 0.7);
}

TEST_F(SnapshotTest, PublishesSnapshotGauges) {
  auto built = Aeetes::BuildFromText({"alpha beta", "gamma"}, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveSnapshot(**built, path_).ok());
  auto loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE((*loaded)->metrics().FindGauge("snapshot.load_us"), nullptr);
  const auto* bytes = (*loaded)->metrics().FindGauge("snapshot.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(static_cast<uintmax_t>(bytes->value()),
            std::filesystem::file_size(path_));
  const auto* mmap = (*loaded)->metrics().FindGauge("snapshot.mmap");
  ASSERT_NE(mmap, nullptr);
  EXPECT_EQ(mmap->value(), 1);
}

TEST_F(SnapshotTest, RejectsMissingFile) {
  auto loaded = LoadSnapshot(path_ + ".does-not-exist");
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SnapshotTest, RejectsWrongMagic) {
  std::ofstream(path_, std::ios::binary) << "not a snapshot at all";
  auto loaded = LoadSnapshot(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

/// Only the v2 engine image loads. Version 1 (the retired record format)
/// and unknown versions fail typed, naming the version, before any of the
/// body is parsed.
TEST_F(SnapshotTest, RejectsUnsupportedVersion) {
  auto built = Aeetes::BuildFromText({"alpha beta"}, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveSnapshot(**built, path_).ok());
  const std::vector<uint8_t> pristine = ReadFileBytes(path_);
  ASSERT_GE(pristine.size(), 8u);
  for (const uint8_t version : {uint8_t{1}, uint8_t{99}}) {
    std::vector<uint8_t> bytes = pristine;
    bytes[4] = version;  // version field, little-endian low byte
    WriteFileBytes(path_, bytes);
    auto loaded = LoadSnapshot(path_);
    ASSERT_FALSE(loaded.ok()) << "version " << int{version};
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("version " +
                                             std::to_string(version)),
              std::string::npos)
        << loaded.status();
  }
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  auto built = Aeetes::BuildFromText({"alpha beta"}, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveSnapshot(**built, path_).ok());
  const std::vector<uint8_t> full = ReadFileBytes(path_);
  ASSERT_GT(full.size(), 128u);
  // Ladder of truncation points: empty file, partial header, partial
  // section table, partial payloads, and one byte short of complete.
  for (const size_t keep :
       {size_t{0}, size_t{1}, size_t{8}, size_t{20}, size_t{63}, size_t{64},
        full.size() / 4, full.size() / 2, full.size() - 1}) {
    WriteFileBytes(path_,
                   std::vector<uint8_t>(full.begin(), full.begin() + keep));
    auto loaded = LoadSnapshot(path_);
    EXPECT_FALSE(loaded.ok()) << "truncated to " << keep << " bytes";
  }
}

/// Deterministic corruption fuzz over the v2 image. Every corrupted file
/// must either fail to load with a Status (never crash) or — when the flip
/// lands in alignment padding or unused reserved bytes — load and produce
/// results bit-identical to the pristine engine.
TEST_F(SnapshotTest, V2BitFlipsNeverCrashOrCorrupt) {
  auto built = Aeetes::BuildFromText(
      {"big apple pizza", "new york city", "alpha beta gamma", "delta"},
      {"big apple <=> new york"});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveSnapshot(**built, path_).ok());
  const std::vector<uint8_t> pristine = ReadFileBytes(path_);
  ASSERT_GT(pristine.size(), 0u);

  const std::string text = "went to the big apple for new york pizza";
  Document doc = (*built)->EncodeDocument(text);
  auto baseline = (*built)->Extract(doc, 0.6);
  ASSERT_TRUE(baseline.ok());
  const auto expected = Sorted(baseline->matches);

  size_t rejected = 0, survived = 0;
  for (size_t pos = 0; pos < pristine.size(); pos += 97) {
    std::vector<uint8_t> bytes = pristine;
    bytes[pos] ^= 0xFF;
    WriteFileBytes(path_, bytes);
    auto loaded = LoadSnapshot(path_);
    if (!loaded.ok()) {
      ++rejected;
      continue;
    }
    ++survived;
    Document d = (*loaded)->EncodeDocument(text);
    auto result = (*loaded)->Extract(d, 0.6);
    ASSERT_TRUE(result.ok()) << "flip at byte " << pos;
    EXPECT_EQ(Sorted(result->matches), expected) << "flip at byte " << pos;
  }
  // The checksummed sections dominate the file, so most flips must be
  // caught; a handful landing in padding/reserved bytes may survive.
  EXPECT_GT(rejected, 0u);
  SUCCEED() << rejected << " flips rejected, " << survived << " benign";
}

/// Cross-backing equivalence on the real institutions dataset: the engine
/// built in memory (heap-packed image) and the one mmapped from its v2
/// snapshot must produce identical (entity, span, score) sets under all
/// four filtering strategies.
TEST_F(SnapshotTest, CrossBackingEquivalenceOnInstitutions) {
  const std::string dir = std::string(AEETES_DATA_DIR) + "/institutions";
  const auto entities = ReadLines(dir + "/entities.txt");
  const auto rules = ReadLines(dir + "/rules.txt");
  const auto documents = ReadLines(dir + "/documents.txt");
  if (entities.empty() || documents.empty()) {
    GTEST_SKIP() << "data/institutions not found at " << dir;
  }

  for (const FilterStrategy strategy :
       {FilterStrategy::kSimple, FilterStrategy::kSkip,
        FilterStrategy::kDynamic, FilterStrategy::kLazy}) {
    AeetesOptions options;
    options.strategy = strategy;
    auto built = Aeetes::BuildFromText(entities, rules, options);
    ASSERT_TRUE(built.ok()) << built.status();

    ASSERT_TRUE(SaveSnapshot(**built, path_).ok());
    auto loaded = LoadSnapshot(path_, options);
    ASSERT_TRUE(loaded.ok()) << "strategy=" << static_cast<int>(strategy)
                             << ": " << loaded.status();
    ExpectSameExtraction(**built, **loaded, documents);
  }
}

}  // namespace
}  // namespace aeetes
