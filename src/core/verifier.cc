#include "src/core/verifier.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/common/logging.h"
#include "src/common/span.h"
#include "src/text/token_set.h"

namespace aeetes {

namespace {

/// Memoization sentinel for "no window set built yet". No valid candidate
/// can carry this (pos, len): it would place the window far past any
/// document the 32-bit coordinates can address, and the bounds checks
/// below reject it. (The previous implementation initialized the memo key
/// to (0, 0) and needed a separate have_set flag to keep a first candidate
/// at pos 0 from reading an empty set.)
constexpr uint32_t kNoWindow = std::numeric_limits<uint32_t>::max();

}  // namespace

void VerifyCandidatesInto(std::vector<Candidate>& candidates,
                          const Document& doc, const DerivedDictionary& dd,
                          double tau, const JaccArOptions& options,
                          std::vector<Match>& matches, TokenSeq& ordered_set,
                          std::vector<TokenRank>& ordered_ranks,
                          VerifyStats* stats, bool early_termination) {
  matches.clear();
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.pos != b.pos) return a.pos < b.pos;
              if (a.len != b.len) return a.len < b.len;
              return a.origin < b.origin;
            });

  const JaccArVerifier verifier(dd, options);
  uint32_t cur_pos = kNoWindow, cur_len = kNoWindow;
  LengthRange partner;  // of the current window; constant per substring

  const Span<TokenId> tokens(doc.tokens());
  for (const Candidate& c : candidates) {
    if (c.pos != cur_pos || c.len != cur_len) {
      // Candidates come from the generator, but a corrupted (pos, len)
      // would slice past the document: check before touching memory.
      AEETES_CHECK_LE(c.pos, tokens.size()) << "candidate past document end";
      AEETES_CHECK_LE(c.len, tokens.size() - c.pos)
          << "candidate overruns document";
      const Span<TokenId> window = tokens.subspan(c.pos, c.len);
      if (early_termination) {
        BuildOrderedRanksInto(window.begin(), window.end(), dd.token_dict(),
                              ordered_ranks);
        partner = PartnerLengthRange(options.metric, ordered_ranks.size(),
                                     tau);
      } else {
        BuildOrderedSetInto(window.begin(), window.end(), dd.token_dict(),
                            ordered_set);
      }
      cur_pos = c.pos;
      cur_len = c.len;
    }
    if (stats) ++stats->verified;
    const JaccArScore score =
        early_termination
            ? verifier.BestAboveRanksPartner(c.origin, ordered_ranks.data(),
                                             ordered_ranks.size(), tau,
                                             partner)
            : verifier.Score(c.origin, ordered_set, tau);
    if (ScorePasses(score.score, tau)) {
      matches.push_back(Match{c.pos, c.len, c.origin, score.score,
                              score.best_derived});
      if (stats) ++stats->matched;
    }
  }
}

std::vector<Match> VerifyCandidates(std::vector<Candidate> candidates,
                                    const Document& doc,
                                    const DerivedDictionary& dd, double tau,
                                    const JaccArOptions& options,
                                    VerifyStats* stats,
                                    bool early_termination) {
  std::vector<Match> matches;
  TokenSeq ordered_set;
  std::vector<TokenRank> ordered_ranks;
  VerifyCandidatesInto(candidates, doc, dd, tau, options, matches,
                       ordered_set, ordered_ranks, stats, early_termination);
  return matches;
}

}  // namespace aeetes
