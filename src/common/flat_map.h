#ifndef AEETES_COMMON_FLAT_MAP_H_
#define AEETES_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace aeetes {

/// Open-addressing hash map for integer keys, built for hot-path reuse
/// (DESIGN.md §10). Design points, all in service of steady-state
/// allocation freedom:
///
///  * One contiguous slot array (power-of-two capacity, linear probing):
///    no per-node allocation, no bucket chains, cache-friendly probes.
///  * Epoch-based Clear(): O(1), bumps a generation counter instead of
///    touching slots, so clearing between documents costs nothing and —
///    crucially — leaves slot *values* alive. A vector-valued slot keeps
///    its heap capacity across Clear() cycles and a warmed map never
///    allocates again.
///  * No per-key erase. Stale slots (epoch mismatch) act as empty, which
///    keeps linear probing correct without tombstones.
///  * Growth re-inserts the live keys in insertion order, so a table that
///    grew during one pass is laid out exactly as the next pass over the
///    same keys will lay it out: each key lands on its own previous value,
///    capacity included, and the first repeat already allocates nothing.
///
/// Contract on insertion: TryEmplace returns `inserted == true` when the
/// key was absent, but the value slot may hold leftovers from a previous
/// epoch's occupant. Callers must fully reset the value on insertion —
/// this is deliberate, it is what lets vector payloads keep capacity.
///
/// K must be an unsigned integer type; V must be default-constructible
/// and movable. Not thread-safe.
template <typename K, typename V>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] size_t size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }
  [[nodiscard]] size_t capacity() const { return slots_.size(); }

  /// Drops every entry in O(1). Slot storage and slot values survive (see
  /// class comment).
  void Clear() {
    order_.clear();
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: lazily restamp so stale != current
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Ensures `n` keys fit without rehashing.
  void Reserve(size_t n) {
    size_t cap = slots_.size();
    while (NeedsGrowth(n, cap)) cap = cap == 0 ? kMinCapacity : cap * 2;
    if (cap != slots_.size()) Rehash(cap);
  }

  /// Returns {value pointer, inserted}. On insertion the value is NOT
  /// reset (class comment); the caller must overwrite it.
  std::pair<V*, bool> TryEmplace(K key) {
    if (NeedsGrowth(order_.size() + 1, slots_.size())) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    Slot& s = Probe(key);
    if (s.epoch == epoch_) return {&s.value, false};
    s.key = key;
    s.epoch = epoch_;
    order_.push_back(static_cast<uint32_t>(&s - slots_.data()));
    return {&s.value, true};
  }

  /// Returns the value for `key`, or nullptr when absent.
  V* Find(K key) {
    if (slots_.empty()) return nullptr;
    Slot& s = Probe(key);
    return s.epoch == epoch_ ? &s.value : nullptr;
  }
  [[nodiscard]] const V* Find(K key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  [[nodiscard]] bool Contains(K key) const { return Find(key) != nullptr; }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    K key{};
    uint32_t epoch = 0;  // live iff == map epoch; 0 is never the map epoch
    V value{};
  };

  /// Max load factor 7/8: probes stay short, growth stays rare.
  static bool NeedsGrowth(size_t size, size_t cap) {
    return size * 8 > cap * 7;
  }

  /// SplitMix64 finalizer: full-avalanche mix so dense integer keys (token
  /// ids) spread over the table instead of clustering probe runs.
  static size_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  /// First slot that is stale (insertion point) or live with `key`.
  /// Terminates because load factor < 1 guarantees a stale slot exists.
  Slot& Probe(K key) {
    const size_t mask = slots_.size() - 1;
    size_t i = Mix(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_ || s.key == key) return s;
      i = (i + 1) & mask;
    }
  }

  void Rehash(size_t new_cap) {
    AEETES_DCHECK_EQ(new_cap & (new_cap - 1), size_t{0});
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_cap);  // all epochs 0
    epoch_ = 1;
    // Live keys only (stale values drop their capacity), in insertion order.
    for (uint32_t& index : order_) {
      Slot& src = old[index];
      Slot& dst = Probe(src.key);
      dst.key = src.key;
      dst.epoch = epoch_;
      dst.value = std::move(src.value);
      index = static_cast<uint32_t>(&dst - slots_.data());
    }
  }

  std::vector<Slot> slots_;
  /// Slot index of every live key, in insertion order.
  std::vector<uint32_t> order_;
  uint32_t epoch_ = 1;  // slots default to epoch 0 == stale
};

/// Open-addressing integer set with the same reuse properties as FlatMap
/// (O(1) epoch Clear, no steady-state allocations after warm-up).
template <typename K>
class FlatSet {
 public:
  /// Returns true when `key` was newly inserted.
  bool Insert(K key) { return map_.TryEmplace(key).second; }
  [[nodiscard]] bool Contains(K key) const { return map_.Contains(key); }
  void Clear() { map_.Clear(); }
  void Reserve(size_t n) { map_.Reserve(n); }
  [[nodiscard]] size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }

 private:
  struct Empty {};
  FlatMap<K, Empty> map_;
};

}  // namespace aeetes

#endif  // AEETES_COMMON_FLAT_MAP_H_
