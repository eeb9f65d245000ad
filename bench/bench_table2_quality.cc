// Regenerates Table 2 (precision/recall/F-measure of Jaccard vs Fuzzy
// Jaccard vs JaccAR) and the Figure 8 case study.
//
// Evaluation protocol (the paper does not fully specify its own; see
// EXPERIMENTS.md): ground truth is the set of planted marked mentions.
// Each extractor's matches are reduced to one prediction per substring
// (arg-max score — "top-1"); a prediction is a true positive when a marked
// pair with the same document, the same entity and an overlapping token
// span exists. False positives are deduped per (doc, entity, start).

#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "bench/bench_common.h"
#include "src/baseline/faerie.h"
#include "src/common/logging.h"
#include "src/baseline/fuzzy_extractor.h"
#include "src/sim/fuzzy_jaccard.h"
#include "src/sim/jaccar.h"
#include "src/text/token_set.h"

namespace aeetes {
namespace {

struct Prf {
  double p = 0.0, r = 0.0, f = 0.0;
};

Prf Evaluate(const std::vector<std::vector<Match>>& per_doc_matches,
             const SyntheticDataset& ds) {
  // Top-1 per substring.
  std::map<std::tuple<size_t, uint32_t, uint32_t>, Match> top1;
  for (size_t d = 0; d < per_doc_matches.size(); ++d) {
    for (const Match& m : per_doc_matches[d]) {
      const auto key = std::make_tuple(d, m.token_begin, m.token_len);
      auto it = top1.find(key);
      if (it == top1.end() || m.score > it->second.score ||
          (m.score == it->second.score && m.entity < it->second.entity)) {
        top1[key] = m;
      }
    }
  }
  // Map predictions to marked pairs.
  std::set<size_t> tp_gts;
  std::set<std::tuple<size_t, uint32_t, uint32_t>> fps;
  for (const auto& [key, m] : top1) {
    const size_t d = std::get<0>(key);
    bool is_tp = false;
    bool nested_in_other = false;
    for (size_t g = 0; g < ds.ground_truth.size(); ++g) {
      const GroundTruthPair& gt = ds.ground_truth[g];
      if (gt.doc != d) continue;
      const bool overlap = m.token_begin < gt.token_begin + gt.token_len &&
                           gt.token_begin < m.token_begin + m.token_len;
      if (!overlap) continue;
      if (gt.entity == m.entity) {
        tp_gts.insert(g);
        is_tp = true;
        break;
      }
      // A prediction strictly inside a marked mention of a *different*
      // entity is usually a genuine (just unmarked) inner mention — e.g.
      // a rule's rhs token that is itself a dictionary entry. Ignore it:
      // neither TP nor FP (see EXPERIMENTS.md, protocol notes).
      if (gt.token_begin <= m.token_begin &&
          m.token_begin + m.token_len <= gt.token_begin + gt.token_len) {
        nested_in_other = true;
      }
    }
    if (!is_tp && !nested_in_other) {
      fps.emplace(d, static_cast<uint32_t>(m.entity), m.token_begin);
    }
  }
  Prf out;
  const double tp = static_cast<double>(tp_gts.size());
  const double fp = static_cast<double>(fps.size());
  const double total = static_cast<double>(ds.ground_truth.size());
  out.p = tp + fp > 0 ? tp / (tp + fp) : 0.0;
  out.r = total > 0 ? tp / total : 0.0;
  out.f = out.p + out.r > 0 ? 2 * out.p * out.r / (out.p + out.r) : 0.0;
  return out;
}

DatasetProfile QualityProfile(DatasetProfile base) {
  base.num_entities = 400;
  base.num_documents = 8;
  base.num_rules = 160;
  base.mentions_per_doc = 13;  // ~100 marked pairs, as in the paper
  base.doc_len = std::min<size_t>(base.doc_len, 320);
  return base;
}

/// The Jaccard and FJ baselines' token space: a dictionary of its own
/// holding every entity word and every document word, interned before
/// Freeze so FJ sees the text of misspelled document words.
struct BaselineCorpus {
  std::shared_ptr<TokenDictionary> dict = std::make_shared<TokenDictionary>();
  std::vector<TokenSeq> entities;
  std::vector<Document> docs;
};

BaselineCorpus EncodeBaselineCorpus(const SyntheticDataset& ds) {
  BaselineCorpus out;
  Tokenizer tokenizer;
  for (const std::string& e : ds.entity_texts) {
    out.entities.push_back(out.dict->Encode(tokenizer.TokenizeToStrings(e)));
    for (const TokenId t : out.entities.back()) {
      AEETES_CHECK(out.dict->AddFrequency(t).ok());
    }
  }
  for (const std::string& d : ds.documents) {
    [[maybe_unused]] const TokenSeq ids =
        out.dict->Encode(tokenizer.TokenizeToStrings(d));
  }
  out.dict->Freeze();
  for (const std::string& d : ds.documents) {
    out.docs.push_back(Document::FromText(d, tokenizer, *out.dict));
  }
  return out;
}

void CaseStudy(const SyntheticDataset& ds, const Aeetes& aeetes,
               const std::vector<Document>& docs,
               const BaselineCorpus& baseline) {
  // Figure 8: show one synonym-variant marked pair with all three scores.
  for (const GroundTruthPair& gt : ds.ground_truth) {
    if (gt.kind != MentionKind::kSynonymVariant) continue;
    const Document& doc = docs[gt.doc];
    const std::string substring =
        doc.SubstringText(gt.token_begin, gt.token_len);
    const std::string entity = ds.entity_texts[gt.entity];

    const auto window = [&](const Document& d, const TokenDictionary& dict) {
      return BuildOrderedSet(
          TokenSeq(d.tokens().begin() + gt.token_begin,
                   d.tokens().begin() + gt.token_begin + gt.token_len),
          dict);
    };
    const TokenDictionary& bdict = *baseline.dict;
    const TokenSeq bset = window(baseline.docs[gt.doc], bdict);
    const TokenSeq eset = BuildOrderedSet(baseline.entities[gt.entity], bdict);
    const double jac = JaccardOnOrderedSets(bset, eset, bdict);
    const double fj = FuzzyJaccard().Similarity(bset, eset, bdict);
    const JaccArVerifier verifier(aeetes.derived_dictionary());
    const double jaccar =
        verifier
            .Score(gt.entity,
                   window(doc, aeetes.derived_dictionary().token_dict()))
            .score;

    std::cout << "  case study [" << ds.profile.name << "]\n"
              << "    substring: \"" << substring << "\"\n"
              << "    entity:    \"" << entity << "\"\n"
              << "    Jaccard=" << std::fixed << std::setprecision(2) << jac
              << "  FJ=" << fj << "  JaccAR=" << jaccar << "\n";
    return;
  }
}

}  // namespace
}  // namespace aeetes

int main() {
  using namespace aeetes;
  bench::PrintHeader("Quality of similarity measures", "Table 2 + Figure 8");

  std::cout << std::left << std::setw(14) << "dataset" << std::setw(6)
            << "tau";
  for (const char* m : {"Jaccard", "FJ", "JaccAR"}) {
    std::cout << std::right << std::setw(8) << (std::string(m) + ":P")
              << std::setw(8) << "R" << std::setw(8) << "F";
  }
  std::cout << "\n";

  for (const DatasetProfile& base : bench::EvaluationProfiles()) {
    const DatasetProfile profile = QualityProfile(base);
    const SyntheticDataset ds = GenerateDataset(profile);

    // JaccAR extractor (Aeetes) with a cap high enough for all planted
    // witnesses.
    AeetesOptions options;
    options.derivation.expander.max_derived = 1024;
    auto aeetes_built =
        Aeetes::BuildFromText(ds.entity_texts, ds.rule_lines, options);
    AEETES_CHECK(aeetes_built.ok());
    auto& aeetes = *aeetes_built;
    std::vector<Document> docs;
    for (const std::string& d : ds.documents) {
      docs.push_back(aeetes->EncodeDocument(d));
    }

    // Plain-Jaccard (Faerie) and FJ extractors over the origin dictionary.
    const BaselineCorpus baseline = EncodeBaselineCorpus(ds);
    auto jaccard_faerie = Faerie::Build(baseline.entities, baseline.dict);
    AEETES_CHECK(jaccard_faerie.ok());
    const FuzzyExtractor fj_extractor(baseline.entities, *baseline.dict);

    for (double tau : {0.7, 0.8, 0.9}) {
      std::vector<std::vector<Match>> jac_matches, fj_matches, ar_matches;
      for (size_t d = 0; d < docs.size(); ++d) {
        std::vector<Match> jm;
        for (const auto& m :
             (*jaccard_faerie)->Extract(baseline.docs[d], tau)) {
          jm.push_back(Match{m.token_begin, m.token_len, m.entity, m.score,
                             JaccArScore::kNoDerived});
        }
        jac_matches.push_back(std::move(jm));
        fj_matches.push_back(fj_extractor.Extract(baseline.docs[d], tau));
        auto r = aeetes->Extract(docs[d], tau);
        AEETES_CHECK(r.ok());
        ar_matches.push_back(std::move(r->matches));
      }
      const Prf jac = Evaluate(jac_matches, ds);
      const Prf fj = Evaluate(fj_matches, ds);
      const Prf ar = Evaluate(ar_matches, ds);
      std::cout << std::left << std::setw(14) << profile.name << std::setw(6)
                << std::setprecision(2) << tau << std::right << std::fixed
                << std::setprecision(2);
      for (const Prf& x : {jac, fj, ar}) {
        std::cout << std::setw(8) << x.p << std::setw(8) << x.r
                  << std::setw(8) << x.f;
      }
      std::cout << "\n";
    }
    CaseStudy(ds, *aeetes, docs, baseline);
  }
  std::cout << "\nexpected shape (paper): JaccAR F-measure ~0.9+ dominates "
               "both baselines at every tau; FJ precision > Jaccard "
               "precision.\n";
  return 0;
}
