#include "src/text/token_dictionary.h"

#include <string>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace aeetes {

TokenId TokenDictionary::GetOrAdd(std::string_view text) {
  AEETES_CHECK(!frozen_) << "GetOrAdd on a frozen TokenDictionary";
  if (const std::optional<TokenId> known = Lookup(text)) return *known;
  const TokenId id = static_cast<TokenId>(size());
  texts_.emplace_back(text);
  freq_.push_back(0);
  ids_.emplace(texts_.back(), id);
  return id;
}

std::optional<TokenId> TokenDictionary::Lookup(std::string_view text) const {
  if (base_count_ == 0) {
    const auto it = ids_.find(text);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }
  const size_t mask = base_slots_.size() - 1;
  size_t slot =
      static_cast<size_t>(HashBytes(text.data(), text.size())) & mask;
  // Wiring validated that the table has at least one empty slot, so the
  // probe sequence terminates; the explicit bound keeps even a crafted
  // all-full table from looping forever.
  for (size_t probes = 0; probes <= mask; ++probes) {
    const uint32_t id = base_slots_[slot];
    if (id == kEmptySlot) return std::nullopt;
    if (Text(id) == text) return id;
    slot = (slot + 1) & mask;
  }
  return std::nullopt;
}

Status TokenDictionary::AddFrequency(TokenId id, uint64_t count) {
  if (frozen_) {
    return Status::FailedPrecondition(
        "AddFrequency called on a frozen TokenDictionary");
  }
  if (id >= size()) {
    return Status::OutOfRange("token id out of range");
  }
  freq_[id] += count;
  return Status::OK();
}

TokenSeq TokenDictionary::Encode(const std::vector<std::string>& tokens) {
  TokenSeq out;
  out.reserve(tokens.size());
  for (const auto& t : tokens) out.push_back(GetOrAdd(t));
  return out;
}

Status TokenDictionary::AppendSections(ImageBuilder& builder) const {
  if (!frozen_) {
    return Status::FailedPrecondition(
        "TokenDictionary must be frozen before imaging");
  }
  const size_t n = size();
  if (n >= kEmptySlot) {
    return Status::InvalidArgument("too many tokens for an engine image");
  }
  std::string blob;
  std::vector<uint64_t> begin(n + 1);
  std::vector<uint64_t> freq(n);
  size_t total_text = 0;
  for (size_t t = 0; t < n; ++t) {
    total_text += Text(static_cast<TokenId>(t)).size();
  }
  blob.reserve(total_text);
  for (size_t t = 0; t < n; ++t) {
    begin[t] = blob.size();
    blob += Text(static_cast<TokenId>(t));
    freq[t] = frequency(static_cast<TokenId>(t));
  }
  begin[n] = blob.size();

  // Load factor ≤ 1/2 so linear probing stays short for the wired copy.
  size_t num_slots = 8;
  while (num_slots < 2 * n) num_slots <<= 1;
  std::vector<uint32_t> slots(num_slots, kEmptySlot);
  const size_t mask = num_slots - 1;
  for (size_t t = 0; t < n; ++t) {
    const size_t text_begin = static_cast<size_t>(begin[t]);
    const size_t text_len = static_cast<size_t>(begin[t + 1]) - text_begin;
    size_t slot = static_cast<size_t>(
                      HashBytes(blob.data() + text_begin, text_len)) &
                  mask;
    while (slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot] = static_cast<uint32_t>(t);
  }

  builder.AddArray(img::kDictTextBlob, blob.data(), blob.size());
  builder.AddVector(img::kDictTextBegin, begin);
  builder.AddVector(img::kDictFreq, freq);
  builder.AddVector(img::kDictHashSlots, slots);
  return Status::OK();
}

Result<std::unique_ptr<TokenDictionary>> TokenDictionary::WireFromImage(
    const ImageView& view) {
  AEETES_ASSIGN_OR_RETURN(Span<char> blob, view.array<char>(img::kDictTextBlob));
  AEETES_ASSIGN_OR_RETURN(Span<uint64_t> begin,
                          view.array<uint64_t>(img::kDictTextBegin));
  AEETES_ASSIGN_OR_RETURN(Span<uint64_t> freq,
                          view.array<uint64_t>(img::kDictFreq));
  AEETES_ASSIGN_OR_RETURN(Span<uint32_t> slots,
                          view.array<uint32_t>(img::kDictHashSlots));
  if (begin.empty()) {
    return Status::IOError("engine image: empty dict offset table");
  }
  const size_t n = begin.size() - 1;
  if (freq.size() != n || n >= kEmptySlot) {
    return Status::IOError("engine image: dict section sizes disagree");
  }
  if (begin[0] != 0 || begin[n] != blob.size()) {
    return Status::IOError("engine image: dict offsets do not cover blob");
  }
  for (size_t i = 1; i <= n; ++i) {
    if (begin[i] < begin[i - 1]) {
      return Status::IOError("engine image: dict offsets not monotonic");
    }
  }
  if (slots.size() < 8 || (slots.size() & (slots.size() - 1)) != 0 ||
      slots.size() <= n) {
    return Status::IOError("engine image: dict hash table malformed");
  }
  for (const uint32_t s : slots) {
    if (s != kEmptySlot && s >= n) {
      return Status::IOError("engine image: dict hash slot out of range");
    }
  }
  auto dict = std::make_unique<TokenDictionary>();
  dict->base_text_ = blob;
  dict->base_begin_ = begin;
  dict->base_freq_ = freq;
  dict->base_slots_ = slots;
  dict->base_count_ = n;
  dict->frozen_ = true;
  return dict;
}

}  // namespace aeetes
