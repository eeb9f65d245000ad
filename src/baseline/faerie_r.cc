#include "src/baseline/faerie_r.h"

#include <algorithm>
#include <tuple>

namespace aeetes {

namespace {

/// Non-owning view of the derived dictionary's shared TokenDictionary.
std::shared_ptr<const TokenDictionary> NonOwningDict(
    const DerivedDictionary& dd) {
  // The DerivedDictionary outlives FaerieR by contract, so an aliasing
  // shared_ptr with a no-op deleter is safe here.
  return std::shared_ptr<const TokenDictionary>(
      &dd.token_dict(), [](const TokenDictionary*) {});
}

}  // namespace

Result<std::unique_ptr<FaerieR>> FaerieR::Build(const DerivedDictionary& dd) {
  auto fr = std::unique_ptr<FaerieR>(new FaerieR());
  fr->dd_ = &dd;
  std::vector<TokenSeq> derived_sets;
  derived_sets.reserve(dd.num_derived());
  fr->origin_of_.reserve(dd.num_derived());
  for (DerivedId d = 0; d < dd.num_derived(); ++d) {
    const DerivedView de = dd.derived(d);
    derived_sets.emplace_back(de.tokens.begin(), de.tokens.end());
    fr->origin_of_.push_back(de.origin);
  }
  AEETES_ASSIGN_OR_RETURN(
      fr->faerie_, Faerie::Build(std::move(derived_sets), NonOwningDict(dd)));
  return fr;
}

std::vector<Match> FaerieR::Extract(const Document& doc, double tau,
                                    Faerie::Stats* stats) const {
  std::vector<Faerie::FaerieMatch> raw = faerie_->Extract(doc, tau, stats);
  // Post-processing: map derived matches to origin entities, keeping the
  // best score per (substring, origin).
  std::vector<Match> out;
  out.reserve(raw.size());
  for (const Faerie::FaerieMatch& m : raw) {
    out.push_back(Match{m.token_begin, m.token_len, origin_of_[m.entity],
                        m.score, JaccArScore::kNoDerived});
  }
  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    return std::tie(a.token_begin, a.token_len, a.entity, b.score) <
           std::tie(b.token_begin, b.token_len, b.entity, a.score);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Match& a, const Match& b) {
                          return a.token_begin == b.token_begin &&
                                 a.token_len == b.token_len &&
                                 a.entity == b.entity;
                        }),
            out.end());
  return out;
}

}  // namespace aeetes
