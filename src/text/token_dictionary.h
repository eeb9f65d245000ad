#ifndef AEETES_TEXT_TOKEN_DICTIONARY_H_
#define AEETES_TEXT_TOKEN_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/arena.h"
#include "src/common/span.h"
#include "src/common/status.h"
#include "src/text/token.h"

namespace aeetes {

/// Interns token strings to dense TokenIds and maintains the global token
/// order O of the paper: ascending frequency over the *derived dictionary*,
/// ties by id.
///
/// Usage: intern entity/rule tokens while calling AddFrequency, then call
/// Freeze(). A frozen dictionary is read-only: GetOrAdd on it is a CHECK
/// failure, so its size and every rank are fixed for its lifetime and any
/// number of threads may read it without synchronization.
///
/// Document tokens are never interned. Section 3.2 of the paper only needs
/// a token absent from the dictionary ("invalid token") to be a distinct,
/// frequency-0 token at the rare end of the order; Document::FromText
/// gives each one an id at or above size(), and frequency(), Rank() and
/// IsValid() accept such ids and treat them as frequency 0.
///
/// Storage (DESIGN.md §11): a dictionary is either *built* — the familiar
/// map/vector pair, filled by GetOrAdd before Freeze() — or *wired* from an
/// engine image by WireFromImage: `Span` views over one concatenated text
/// blob, an offset table, the frequency array and a persisted
/// open-addressing hash table, shared zero-copy with the arena (heap or
/// mmap) that backs the image. Never both.
class TokenDictionary {
 public:
  TokenDictionary() = default;

  TokenDictionary(const TokenDictionary&) = delete;
  TokenDictionary& operator=(const TokenDictionary&) = delete;
  TokenDictionary(TokenDictionary&&) = default;
  TokenDictionary& operator=(TokenDictionary&&) = default;

  /// Interns `text`, returning its id (existing or fresh). CHECK-fails on
  /// a frozen dictionary.
  TokenId GetOrAdd(std::string_view text);

  /// Returns the id of `text` if interned.
  [[nodiscard]] std::optional<TokenId> Lookup(std::string_view text) const;

  /// Adds `count` dictionary occurrences to token `id`. Must not be called
  /// after Freeze().
  Status AddFrequency(TokenId id, uint64_t count = 1);

  /// Locks frequencies; ranks become stable from here on.
  void Freeze() { frozen_ = true; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Dictionary frequency; 0 for invalid tokens, including every id at or
  /// above size() (a document's unknown tokens).
  [[nodiscard]] uint64_t frequency(TokenId id) const {
    if (id < base_count_) return base_freq_[id];
    return id < freq_.size() ? freq_[id] : 0;
  }

  /// A token is valid iff it occurs in the derived dictionary.
  [[nodiscard]] bool IsValid(TokenId id) const { return frequency(id) > 0; }

  /// Global-order rank: (frequency << 32) | id. Lower = rarer = earlier in
  /// every tau-prefix.
  [[nodiscard]] TokenRank Rank(TokenId id) const {
    return (static_cast<TokenRank>(frequency(id)) << 32) |
           static_cast<TokenRank>(id);
  }

  /// Token text of an interned id (`id < size()`; a document's unknown
  /// tokens have their text in the Document). Views into a built
  /// dictionary stay valid until the next GetOrAdd/Encode call; views into
  /// a wired one live as long as the backing image.
  [[nodiscard]] std::string_view Text(TokenId id) const {
    if (id < base_count_) {
      const size_t begin = static_cast<size_t>(base_begin_[id]);
      const size_t end = static_cast<size_t>(base_begin_[id + 1]);
      return std::string_view(base_text_.data() + begin, end - begin);
    }
    return texts_[id];
  }

  [[nodiscard]] size_t size() const { return base_count_ + texts_.size(); }

  /// Encodes a pre-tokenized string list, interning unseen tokens.
  TokenSeq Encode(const std::vector<std::string>& tokens);

  /// Appends the four dictionary sections (img::kDict*) covering every
  /// token in id order. Requires a frozen dictionary; the persisted hash
  /// table is rebuilt over the full id range so the wired copy resolves
  /// every token.
  [[nodiscard]] Status AppendSections(ImageBuilder& builder) const;

  /// Wires a frozen dictionary whose views alias `view`'s backing memory
  /// (zero-copy; the image must outlive the dictionary).
  static Result<std::unique_ptr<TokenDictionary>> WireFromImage(
      const ImageView& view);

 private:
  /// Empty-slot marker in the persisted hash table; bounds the id space.
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  // Wired storage: views into an engine image (empty for built dicts).
  Span<char> base_text_;
  Span<uint64_t> base_begin_;  // base_count_ + 1 offsets into base_text_
  Span<uint64_t> base_freq_;   // base_count_ frequencies
  Span<uint32_t> base_slots_;  // power-of-two open-addressing table
  size_t base_count_ = 0;

  // Built storage (empty for wired dicts).
  std::unordered_map<std::string, TokenId> ids_;
  std::vector<std::string> texts_;
  std::vector<uint64_t> freq_;
  bool frozen_ = false;
};

}  // namespace aeetes

#endif  // AEETES_TEXT_TOKEN_DICTIONARY_H_
