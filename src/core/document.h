#ifndef AEETES_CORE_DOCUMENT_H_
#define AEETES_CORE_DOCUMENT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/text/token.h"
#include "src/text/token_dictionary.h"
#include "src/text/tokenizer.h"

namespace aeetes {

/// A tokenized, encoded document. Encoding never writes to the dictionary:
/// a token the dictionary knows keeps its id, and the k-th distinct token
/// it does not know ("invalid token", Section 3.2 of the paper) gets the
/// document-local id `dict.size() + k`, which the dictionary ranks as
/// frequency 0. The document keeps the texts of those tokens (TokenText)
/// and the byte spans of all tokens, so matches can be reported as
/// character ranges of the original text.
class Document {
 public:
  /// An empty document.
  Document() = default;

  /// Tokenizes `text` and encodes its tokens against `dict` (read-only).
  static Document FromText(std::string_view text, const Tokenizer& tokenizer,
                           const TokenDictionary& dict);

  /// Wraps an already-encoded token sequence (spans and texts unavailable).
  static Document FromTokens(TokenSeq tokens);

  /// Tokens [begin, begin + len) as a document of their own that shares
  /// this one's unknown-token texts, so ids keep their meaning (spans and
  /// the original text are dropped).
  [[nodiscard]] Document Slice(size_t begin, size_t len) const;

  [[nodiscard]] const TokenSeq& tokens() const { return tokens_; }
  [[nodiscard]] size_t size() const { return tokens_.size(); }

  /// Text of token id `t`: `dict`'s text for an id it holds, this
  /// document's own copy for an unknown token, empty when the document has
  /// no text for it (built from tokens). `dict` must be the dictionary the
  /// document was encoded against.
  [[nodiscard]] std::string_view TokenText(TokenId t,
                                           const TokenDictionary& dict) const;

  /// Distinct tokens absent from the dictionary, in order of first
  /// appearance (the k-th has id dict.size() + k).
  [[nodiscard]] size_t num_unknown() const {
    return unknown_ == nullptr ? 0 : unknown_->size();
  }

  /// Byte span of token `i` in the original text, or {0,0} when the
  /// document was built from tokens.
  [[nodiscard]] std::pair<size_t, size_t> TokenSpan(size_t i) const {
    if (i >= spans_.size()) return {0, 0};
    return spans_[i];
  }

  /// Byte range covering tokens [begin, begin + len).
  [[nodiscard]] std::pair<size_t, size_t> SubstringSpan(size_t begin,
                                                        size_t len) const;

  /// The original text (empty when built from tokens).
  [[nodiscard]] const std::string& text() const { return text_; }

  /// Substring text for tokens [begin, begin + len).
  [[nodiscard]] std::string SubstringText(size_t begin, size_t len) const;

 private:
  std::string text_;
  TokenSeq tokens_;
  std::vector<std::pair<size_t, size_t>> spans_;
  /// Texts of the unknown tokens, shared with slices; null when none.
  std::shared_ptr<const std::vector<std::string>> unknown_;
};

}  // namespace aeetes

#endif  // AEETES_CORE_DOCUMENT_H_
