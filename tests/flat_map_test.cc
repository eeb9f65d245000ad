#include "src/common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

namespace aeetes {
namespace {

TEST(FlatMapTest, InsertAndFind) {
  FlatMap<uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7u), nullptr);

  auto [v, inserted] = m.TryEmplace(7);
  ASSERT_TRUE(inserted);
  *v = 42;
  EXPECT_EQ(m.size(), 1u);
  ASSERT_NE(m.Find(7u), nullptr);
  EXPECT_EQ(*m.Find(7u), 42);
  EXPECT_TRUE(m.Contains(7u));
  EXPECT_FALSE(m.Contains(8u));

  auto [v2, inserted2] = m.TryEmplace(7);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(v2, m.Find(7u));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, ClearDropsEntriesButKeepsCapacity) {
  FlatMap<uint32_t, int> m;
  for (uint32_t k = 0; k < 100; ++k) *m.TryEmplace(k).first = static_cast<int>(k);
  const size_t cap = m.capacity();
  ASSERT_GT(cap, 0u);

  m.Clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  for (uint32_t k = 0; k < 100; ++k) {
    EXPECT_EQ(m.Find(k), nullptr) << "key " << k << " survived Clear()";
  }
}

// The documented reuse contract: after Clear(), re-inserting a key reports
// inserted == true but the slot may still hold the previous epoch's value.
// This is what lets vector payloads keep their heap capacity across
// documents — callers must fully reset the value, not assume it is fresh.
TEST(FlatMapTest, TryEmplaceAfterClearReturnsStaleValue) {
  FlatMap<uint32_t, std::vector<int>> m;
  m.TryEmplace(5).first->assign({1, 2, 3});
  const int* heap = m.Find(5u)->data();

  m.Clear();
  auto [v, inserted] = m.TryEmplace(5);
  ASSERT_TRUE(inserted);  // the key was logically absent...
  EXPECT_GE(v->capacity(), 3u);  // ...but the old buffer is still attached
  EXPECT_EQ(v->data(), heap);  // same heap block: no allocation happened
  v->clear();  // the caller-side reset the contract requires
  v->push_back(9);
  EXPECT_EQ(m.Find(5u)->size(), 1u);
}

TEST(FlatMapTest, GrowthRehashPreservesEntries) {
  FlatMap<uint64_t, uint64_t> m;
  constexpr uint64_t kN = 10000;
  for (uint64_t k = 0; k < kN; ++k) *m.TryEmplace(k * 0x10001).first = k;
  EXPECT_EQ(m.size(), kN);
  for (uint64_t k = 0; k < kN; ++k) {
    const uint64_t* v = m.Find(k * 0x10001);
    ASSERT_NE(v, nullptr) << "lost key " << k * 0x10001 << " across rehash";
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(m.Find(uint64_t{1}), nullptr);
}

TEST(FlatMapTest, ReserveAvoidsRehashDuringInsertion) {
  FlatMap<uint32_t, int> m;
  m.Reserve(1000);
  const size_t cap = m.capacity();
  for (uint32_t k = 0; k < 1000; ++k) *m.TryEmplace(k).first = 0;
  EXPECT_EQ(m.capacity(), cap) << "Reserve(1000) did not pre-size for 1000";
}

TEST(FlatMapTest, ManyClearCyclesStayCorrect) {
  FlatMap<uint32_t, uint32_t> m;
  for (uint32_t round = 0; round < 1000; ++round) {
    m.Clear();
    for (uint32_t k = 0; k < 20; ++k) {
      *m.TryEmplace(round + k).first = round ^ k;
    }
    EXPECT_EQ(m.size(), 20u);
    for (uint32_t k = 0; k < 20; ++k) {
      ASSERT_NE(m.Find(round + k), nullptr);
      EXPECT_EQ(*m.Find(round + k), round ^ k);
    }
    // Keys from two rounds ago must be gone (round + 19 < round + 2 fails
    // only when the window overlaps, so probe one clearly outside it).
    if (round >= 2) {
      EXPECT_EQ(m.Find(round - 2), nullptr);
    }
  }
}

TEST(FlatMapTest, AdversarialKeysSpreadViaMixer) {
  // Dense sequential ids and stride patterns are the actual hot-path key
  // distributions (TokenIds, packed window ids); all must remain findable.
  FlatMap<uint64_t, int> m;
  std::unordered_set<uint64_t> keys;
  for (uint64_t k = 0; k < 512; ++k) keys.insert(k);            // dense
  for (uint64_t k = 0; k < 512; ++k) keys.insert(k << 32);      // high bits
  for (uint64_t k = 0; k < 512; ++k) keys.insert(k * 1024);     // stride
  for (uint64_t k : keys) *m.TryEmplace(k).first = 1;
  EXPECT_EQ(m.size(), keys.size());
  for (uint64_t k : keys) EXPECT_TRUE(m.Contains(k));
}

TEST(FlatMapTest, RepeatAfterGrowthFindsOwnStaleValues) {
  // A pass that grew the table must leave it laid out as the next pass
  // over the same keys (same order, no growth) lays it out, so every key
  // is handed back its own previous value — a vector keeps its capacity.
  for (const size_t n : {100u, 2000u}) {
    for (uint32_t seed = 0; seed < 4; ++seed) {
      FlatMap<uint32_t, uint32_t> m;
      std::mt19937 rng(seed);
      std::vector<uint32_t> keys(n);
      for (uint32_t& k : keys) k = static_cast<uint32_t>(rng());
      for (const uint32_t k : keys) *m.TryEmplace(k).first = k;
      const size_t capacity = m.capacity();
      m.Clear();
      for (const uint32_t k : keys) {
        const auto [value, inserted] = m.TryEmplace(k);
        if (!inserted) continue;  // a repeated random key
        EXPECT_EQ(*value, k) << "n=" << n << " seed=" << seed;
      }
      EXPECT_EQ(m.capacity(), capacity);
    }
  }
}

TEST(FlatSetTest, InsertSemantics) {
  FlatSet<uint64_t> s;
  EXPECT_TRUE(s.Insert(3));
  EXPECT_FALSE(s.Insert(3));
  EXPECT_TRUE(s.Insert(4));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(5));

  s.Clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Contains(3));
  EXPECT_TRUE(s.Insert(3));  // insertable again after Clear
}

TEST(FlatSetTest, FullWidth64BitKeysDoNotAlias) {
  // Regression companion to the candidate-key collision fix: keys that
  // collided under the old packed (pos << 38 | len << 30 | origin) scheme
  // are distinct full-width inputs here and must stay distinct.
  const uint64_t a = (uint64_t{10} << 38) | (uint64_t{259} << 30) | 1;
  const uint64_t b = (uint64_t{11} << 38) | (uint64_t{3} << 30) | 1;
  ASSERT_EQ(a, b) << "test premise: these packed forms alias";
  FlatSet<uint64_t> s;
  EXPECT_TRUE(s.Insert(uint64_t{10} * 1000 + 259));
  EXPECT_TRUE(s.Insert(uint64_t{11} * 1000 + 3));
  EXPECT_EQ(s.size(), 2u);
}

}  // namespace
}  // namespace aeetes
