// The paper's Figure 1 scenario: extracting institution names from a
// conference PC listing. Contrasts three generations of matchers on the
// same document:
//   - exact dictionary match (Aho-Corasick),
//   - approximate syntactic extraction (Faerie, plain Jaccard),
//   - approximate extraction with synonyms (Aeetes, JaccAR).
//
//   $ ./institutions

#include <iostream>
#include <memory>

#include "src/baseline/aho_corasick.h"
#include "src/baseline/faerie.h"
#include "src/core/aeetes.h"

int main() {
  using namespace aeetes;

  const std::vector<std::string> entities = {
      "massachusetts institute of technology",
      "purdue university usa",
      "uq au",
      "university of washington",
  };
  const std::vector<std::string> rules = {
      "mit <=> massachusetts institute of technology",
      "uq <=> university of queensland",
      "au <=> australia",
      "uw <=> university of washington",
  };
  const std::string text =
      "PC members include alice (MIT), bob from Purdue University USA, "
      "carol of the University of Queensland Australia, and dave at the "
      "Univ of Washington";

  auto built = Aeetes::BuildFromText(entities, rules);
  if (!built.ok()) {
    std::cerr << built.status() << "\n";
    return 1;
  }
  auto& aeetes = *built;
  Document doc = aeetes->EncodeDocument(text);
  const TokenDictionary& dict = aeetes->derived_dictionary().token_dict();

  // --- exact matching finds only literal dictionary strings -------------
  AhoCorasick exact;
  const DerivedDictionary& dd = aeetes->derived_dictionary();
  std::vector<TokenSeq> origin_tokens;
  origin_tokens.reserve(dd.num_origins());
  for (EntityId e = 0; e < dd.num_origins(); ++e) {
    const Span<TokenId> tokens = dd.origin_entity(e);
    origin_tokens.emplace_back(tokens.begin(), tokens.end());
  }
  for (const TokenSeq& e : origin_tokens) exact.AddPattern(e);
  exact.Build();
  std::cout << "[exact match / Aho-Corasick]\n";
  for (const auto& hit : exact.FindAll(doc.tokens())) {
    std::cout << "  \"" << doc.SubstringText(hit.begin, hit.len) << "\" -> \""
              << aeetes->EntityText(static_cast<EntityId>(hit.pattern))
              << "\"\n";
  }

  // --- syntactic approximate extraction (no synonyms) -------------------
  auto faerie = Faerie::Build(
      origin_tokens, std::shared_ptr<const TokenDictionary>(
                         &dict, [](const TokenDictionary*) {}));
  if (!faerie.ok()) {
    std::cerr << faerie.status() << "\n";
    return 1;
  }
  std::cout << "\n[approximate / Faerie, Jaccard >= 0.7]\n";
  for (const auto& m : (*faerie)->Extract(doc, 0.7)) {
    std::cout << "  \"" << doc.SubstringText(m.token_begin, m.token_len)
              << "\" -> \"" << aeetes->EntityText(m.entity)
              << "\" (J=" << m.score << ")\n";
  }

  // --- synonym-aware approximate extraction ------------------------------
  std::cout << "\n[approximate with synonyms / Aeetes, JaccAR >= 0.7]\n";
  auto result = aeetes->Extract(doc, 0.7);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  for (const Match& m : result->matches) {
    const DerivedView witness =
        aeetes->derived_dictionary().derived(m.best_derived);
    std::cout << "  \"" << doc.SubstringText(m.token_begin, m.token_len)
              << "\" -> \"" << aeetes->EntityText(m.entity)
              << "\" (JaccAR=" << m.score << ", via "
              << witness.applied_rules.size() << " rule(s))\n";
  }
  std::cout << "\nthe synonym-aware pass recovers the MIT and Queensland "
               "mentions the other two matchers miss.\n";
  return 0;
}
