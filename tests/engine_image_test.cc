#include "src/core/engine_image.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/checksum.h"
#include "src/common/hash.h"
#include "src/io/mapped_file.h"
#include "src/text/token_dictionary.h"
#include "tests/test_util.h"

namespace aeetes {
namespace {

TEST(Crc32cTest, KnownAnswer) {
  // The standard CRC-32C check value for the ASCII digits "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, ExtendComposesWithConcatenation) {
  const std::string a = "engine image ";
  const std::string b = "section payload bytes";
  const std::string ab = a + b;
  EXPECT_EQ(Crc32cExtend(Crc32c(a.data(), a.size()), b.data(), b.size()),
            Crc32c(ab.data(), ab.size()));
  // Single-byte-at-a-time extension must agree too.
  uint32_t crc = Crc32c(nullptr, 0);
  for (char c : ab) crc = Crc32cExtend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32c(ab.data(), ab.size()));
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(257);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7 + 1);
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t pos = 0; pos < data.size(); pos += 31) {
    data[pos] ^= 0x10;
    EXPECT_NE(Crc32c(data.data(), data.size()), clean) << "flip at " << pos;
    data[pos] ^= 0x10;
  }
}

TEST(HashBytesTest, StableAndDiscriminating) {
  const std::string s = "aeetes";
  EXPECT_EQ(HashBytes(s.data(), s.size()), HashBytes(s.data(), s.size()));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abd", 3));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abc", 2));
}

TEST(AlignedBufferTest, SixtyFourByteAligned) {
  for (size_t size : {size_t{1}, size_t{63}, size_t{64}, size_t{4097}}) {
    AlignedBuffer buf(size);
    ASSERT_NE(buf.data(), nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kImageAlignment, 0u)
        << "size=" << size;
    EXPECT_EQ(buf.size(), size);
  }
  AlignedBuffer empty;
  EXPECT_TRUE(empty.empty());
}

class ImageViewTest : public testing::Test {
 protected:
  /// A small two-section image: 5 u32s under id 7 and one Meta under
  /// img::kMeta.
  AlignedBuffer MakeImage() {
    ImageBuilder builder;
    builder.AddVector<uint32_t>(7, {10, 20, 30, 40, 50});
    img::Meta meta;
    meta.num_origins = 3;
    builder.AddPod(img::kMeta, meta);
    auto buf = builder.Finish();
    AEETES_CHECK(buf.ok());
    return std::move(*buf);
  }
};

TEST_F(ImageViewTest, RoundTrip) {
  const AlignedBuffer buf = MakeImage();
  auto view = ImageView::Parse(buf.bytes());
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->section_count(), 2u);
  EXPECT_TRUE(view->has(7));
  EXPECT_FALSE(view->has(8));

  auto arr = view->array<uint32_t>(7);
  ASSERT_TRUE(arr.ok());
  ASSERT_EQ(arr->size(), 5u);
  EXPECT_EQ((*arr)[0], 10u);
  EXPECT_EQ((*arr)[4], 50u);
  // Payloads start on the image alignment boundary.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arr->data()) % kImageAlignment, 0u);

  auto meta = view->pod<img::Meta>(img::kMeta);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_origins, 3u);
}

TEST_F(ImageViewTest, RejectsMissingSectionAndWrongElemSize) {
  const AlignedBuffer buf = MakeImage();
  auto view = ImageView::Parse(buf.bytes());
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->array<uint32_t>(9).ok());
  EXPECT_FALSE(view->array<uint64_t>(7).ok());  // elem_size mismatch
  EXPECT_FALSE(view->pod<uint32_t>(7).ok());    // five elements, not one
}

TEST_F(ImageViewTest, RejectsHostileHeaders) {
  const AlignedBuffer good = MakeImage();
  auto mutate = [&](size_t offset, uint8_t xor_mask) {
    std::vector<uint8_t> bytes(good.bytes().begin(), good.bytes().end());
    bytes[offset] ^= xor_mask;
    return bytes;
  };
  auto parse = [](const std::vector<uint8_t>& bytes) {
    return ImageView::Parse(Span<uint8_t>(bytes.data(), bytes.size()));
  };

  // Truncations: empty, sub-header, sub-table, one byte short.
  EXPECT_FALSE(ImageView::Parse(Span<uint8_t>()).ok());
  for (size_t keep : {size_t{1}, size_t{63}, size_t{80}, good.size() - 1}) {
    std::vector<uint8_t> bytes(good.bytes().begin(),
                               good.bytes().begin() + keep);
    EXPECT_FALSE(parse(bytes).ok()) << "kept " << keep;
  }

  EXPECT_FALSE(parse(mutate(0, 0xFF)).ok());   // magic
  EXPECT_FALSE(parse(mutate(4, 0xFF)).ok());   // version
  EXPECT_FALSE(parse(mutate(8, 0xFF)).ok());   // file_size
  EXPECT_FALSE(parse(mutate(16, 0xFF)).ok());  // endian mark
  EXPECT_FALSE(parse(mutate(20, 0xFF)).ok());  // section count
  EXPECT_FALSE(parse(mutate(32, 0xFF)).ok());  // table crc

  // A flip inside the section table breaks the table CRC.
  EXPECT_FALSE(parse(mutate(sizeof(ImageHeader) + 4, 0xFF)).ok());
  // A flip inside a payload breaks that section's CRC.
  EXPECT_FALSE(parse(mutate(good.size() - 60, 0x01)).ok());
}

TEST_F(ImageViewTest, RejectsDuplicateSectionIds) {
  ImageBuilder builder;
  builder.AddVector<uint32_t>(7, {1});
  builder.AddVector<uint32_t>(7, {2});
  EXPECT_FALSE(builder.Finish().ok());
}

TEST(MappedFileTest, RejectsMissingFileAndDirectory) {
  EXPECT_FALSE(MappedFile::Open("/definitely/not/a/file").ok());
  EXPECT_FALSE(
      MappedFile::Open(std::filesystem::temp_directory_path().string()).ok());
}

TEST(MappedFileTest, MapsBytesVerbatim) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("aeetes_map_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const std::string payload = "mapped file payload";
  std::ofstream(path, std::ios::binary) << payload;
  {
    auto mapped = MappedFile::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    ASSERT_EQ(mapped->bytes().size(), payload.size());
    EXPECT_EQ(std::memcmp(mapped->bytes().data(), payload.data(),
                          payload.size()),
              0);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

/// A dictionary wired from an image: same ids, texts and frequencies as
/// the built one, frozen, and read-only for good.
TEST(TokenDictionaryImageTest, WiredDictionaryIsReadOnly) {
  auto dict = std::make_unique<TokenDictionary>();
  const TokenId alpha = dict->GetOrAdd("alpha");
  const TokenId beta = dict->GetOrAdd("beta");
  ASSERT_TRUE(dict->AddFrequency(alpha, 3).ok());
  ASSERT_TRUE(dict->AddFrequency(beta, 1).ok());
  dict->Freeze();

  ImageBuilder builder;
  ASSERT_TRUE(dict->AppendSections(builder).ok());
  auto buf = builder.Finish();
  ASSERT_TRUE(buf.ok());
  auto view = ImageView::Parse(buf->bytes());
  ASSERT_TRUE(view.ok());
  auto wired = TokenDictionary::WireFromImage(*view);
  ASSERT_TRUE(wired.ok()) << wired.status();

  EXPECT_TRUE((*wired)->frozen());
  EXPECT_EQ((*wired)->size(), 2u);
  EXPECT_EQ((*wired)->Lookup("alpha"), alpha);
  EXPECT_EQ((*wired)->Lookup("beta"), beta);
  EXPECT_EQ((*wired)->Text(alpha), "alpha");
  EXPECT_EQ((*wired)->frequency(alpha), 3u);
  EXPECT_EQ((*wired)->Rank(alpha), dict->Rank(alpha));
  EXPECT_FALSE((*wired)->Lookup("gamma").has_value());

  // Ids past the end (a document's unknown tokens) read as frequency 0;
  // interning is refused.
  EXPECT_EQ((*wired)->frequency(2), 0u);
  EXPECT_LT((*wired)->Rank(2), (*wired)->Rank(beta));
  EXPECT_DEATH((*wired)->GetOrAdd("gamma"),
               "GetOrAdd on a frozen TokenDictionary");
}

TEST(TokenDictionaryImageTest, SurvivesManyTokens) {
  auto dict = std::make_unique<TokenDictionary>();
  constexpr size_t kN = 1000;
  for (size_t i = 0; i < kN; ++i) {
    const TokenId id = dict->GetOrAdd(testutil::NumberedName("tok", i));
    ASSERT_TRUE(dict->AddFrequency(id, i % 7 + 1).ok());
  }
  dict->Freeze();
  ImageBuilder builder;
  ASSERT_TRUE(dict->AppendSections(builder).ok());
  auto buf = builder.Finish();
  ASSERT_TRUE(buf.ok());
  auto view = ImageView::Parse(buf->bytes());
  ASSERT_TRUE(view.ok());
  auto wired = TokenDictionary::WireFromImage(*view);
  ASSERT_TRUE(wired.ok());
  for (size_t i = 0; i < kN; ++i) {
    const std::string name = testutil::NumberedName("tok", i);
    const auto id = (*wired)->Lookup(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_EQ((*wired)->Text(*id), name);
    EXPECT_EQ((*wired)->frequency(*id), i % 7 + 1);
  }
}

/// Heap-packed and file-mapped backings of the same image must wire to
/// behaviorally identical engines (the tentpole invariant).
TEST(EngineImageTest, HeapAndMmapBackingsAgree) {
  std::mt19937_64 rng(20260806);
  testutil::RandomWorld world = testutil::MakeRandomWorld(rng);
  auto parts = world.dd->ToParts();
  ASSERT_TRUE(parts.ok()) << parts.status();
  auto packed = EngineImage::Pack(std::move(*parts));
  ASSERT_TRUE(packed.ok()) << packed.status();
  EXPECT_FALSE((*packed)->stats().mmap_backed);

  // Write the arena verbatim and map it back.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("aeetes_image_" + std::to_string(::getpid()) + ".bin"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const Span<uint8_t> bytes = (*packed)->bytes();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  auto mapped = EngineImage::FromFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE((*mapped)->stats().mmap_backed);

  const DerivedDictionary& a = (*packed)->derived_dictionary();
  const DerivedDictionary& b = (*mapped)->derived_dictionary();
  ASSERT_EQ(a.num_origins(), b.num_origins());
  ASSERT_EQ(a.num_derived(), b.num_derived());
  for (DerivedId d = 0; d < a.num_derived(); ++d) {
    const DerivedView va = a.derived(d);
    const DerivedView vb = b.derived(d);
    EXPECT_EQ(va.origin, vb.origin);
    ASSERT_EQ(va.ordered_set.size(), vb.ordered_set.size());
    for (size_t i = 0; i < va.ordered_set.size(); ++i) {
      EXPECT_EQ(va.ordered_set[i], vb.ordered_set[i]);
    }
  }
  EXPECT_EQ((*packed)->index().MemoryBytes(), (*mapped)->index().MemoryBytes());

  std::error_code ec;
  std::filesystem::remove(path, ec);
}

/// FromBuffer must reject buffers that fail section validation even when
/// the checksums are recomputed to match (semantic, not just syntactic,
/// validation).
TEST(EngineImageTest, RejectsStructurallyInvalidImages) {
  // An image with only a meta section is syntactically fine but lacks
  // every component section.
  ImageBuilder builder;
  img::Meta meta;
  builder.AddPod(img::kMeta, meta);
  auto buf = builder.Finish();
  ASSERT_TRUE(buf.ok());
  auto image = EngineImage::FromBuffer(std::move(*buf));
  EXPECT_FALSE(image.ok());
}

}  // namespace
}  // namespace aeetes
