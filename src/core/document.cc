#include "src/core/document.h"

#include <map>

namespace aeetes {

Document Document::FromText(std::string_view text, const Tokenizer& tokenizer,
                            const TokenDictionary& dict) {
  Document doc;
  doc.text_ = std::string(text);
  std::map<std::string, TokenId, std::less<>> unknown;  // text -> id
  for (RawToken& rt : tokenizer.Tokenize(text)) {
    TokenId id;
    if (const std::optional<TokenId> known = dict.Lookup(rt.text)) {
      id = *known;
    } else {
      const auto next = static_cast<TokenId>(dict.size() + unknown.size());
      id = unknown.try_emplace(std::move(rt.text), next).first->second;
    }
    doc.tokens_.push_back(id);
    doc.spans_.emplace_back(rt.begin, rt.end);
  }
  if (!unknown.empty()) {
    auto texts = std::make_shared<std::vector<std::string>>(unknown.size());
    for (const auto& [word, id] : unknown) (*texts)[id - dict.size()] = word;
    doc.unknown_ = std::move(texts);
  }
  return doc;
}

Document Document::FromTokens(TokenSeq tokens) {
  Document doc;
  doc.tokens_ = std::move(tokens);
  return doc;
}

Document Document::Slice(size_t begin, size_t len) const {
  const auto first = tokens_.begin() + static_cast<ptrdiff_t>(begin);
  Document slice =
      FromTokens(TokenSeq(first, first + static_cast<ptrdiff_t>(len)));
  slice.unknown_ = unknown_;
  return slice;
}

std::string_view Document::TokenText(TokenId t,
                                     const TokenDictionary& dict) const {
  if (t < dict.size()) return dict.Text(t);
  const size_t k = t - dict.size();
  if (k >= num_unknown()) return {};
  return (*unknown_)[k];
}

std::pair<size_t, size_t> Document::SubstringSpan(size_t begin,
                                                  size_t len) const {
  if (len == 0 || begin >= spans_.size()) return {0, 0};
  const size_t last = std::min(begin + len, spans_.size()) - 1;
  return {spans_[begin].first, spans_[last].second};
}

std::string Document::SubstringText(size_t begin, size_t len) const {
  const auto [b, e] = SubstringSpan(begin, len);
  if (e <= b || e > text_.size()) return "";
  return text_.substr(b, e - b);
}

}  // namespace aeetes
