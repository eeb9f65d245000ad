#include "src/core/delta_layer.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/synonym/applicability.h"
#include "src/synonym/conflict.h"
#include "src/synonym/expander.h"
#include "src/text/token_set.h"

namespace aeetes {

namespace {

/// Exact intersection size of two ascending id sets.
size_t SortedOverlap(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  size_t o = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++o;
      ++i;
      ++j;
    }
  }
  return o;
}

bool CandidateBefore(const Candidate& a, const Candidate& b) {
  if (a.pos != b.pos) return a.pos < b.pos;
  if (a.len != b.len) return a.len < b.len;
  return a.origin < b.origin;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += ' ';
    out += tokens[i];
  }
  return out;
}

}  // namespace

bool DeltaIndex::IsTombstoned(EntityId e) const {
  return std::binary_search(tombstones_.begin(), tombstones_.end(), e);
}

void DeltaIndex::CollectMatches(const Document& doc,
                                const TokenDictionary& dict, double tau,
                                Metric metric, bool weighted,
                                const LengthRange& win_len,
                                DeltaQueryBuffers& buf,
                                std::vector<Match>& out,
                                VerifyStats* stats) const {
  if (entries_.empty()) return;
  const size_t n = doc.size();
  if (n == 0 || win_len.lo > n) return;
  const TokenSeq& tokens = doc.tokens();

  // Phase 1: bridge document tokens into the delta token space by text
  // (memoized per distinct TokenId). The document supplies the text, so
  // its unknown tokens bridge too: an upserted entity may use words the
  // frozen dictionary has never seen.
  buf.token_cache.Clear();
  buf.pos_delta.clear();
  buf.pos_delta.resize(n, 0);
  bool any_hit = false;
  for (size_t i = 0; i < n; ++i) {
    auto [slot, inserted] = buf.token_cache.TryEmplace(tokens[i]);
    if (inserted) {
      const auto it = token_of_text_.find(doc.TokenText(tokens[i], dict));
      *slot = it == token_of_text_.end() ? 0 : it->second + 1;
    }
    buf.pos_delta[i] = *slot;
    if (*slot != 0 && !postings_[*slot - 1].empty()) any_hit = true;
  }
  if (!any_hit) return;

  // Phase 2: every window within the effective length bounds containing a
  // posting hit is a candidate against each posted entry — the exhaustive
  // analogue of the frozen prefix filter (a superset of its candidates;
  // any window scoring >= tau > 0 shares a token with the entity, so no
  // match is missed). Duplicates collapse in the sort below.
  buf.candidates.clear();
  const size_t max_len = std::min<size_t>(win_len.hi, n);
  for (size_t i = 0; i < n; ++i) {
    if (buf.pos_delta[i] == 0) continue;
    const std::vector<uint32_t>& list = postings_[buf.pos_delta[i] - 1];
    if (list.empty()) continue;
    for (size_t l = win_len.lo; l <= max_len; ++l) {
      const size_t p_lo = i + 1 >= l ? i + 1 - l : 0;
      const size_t p_hi = std::min(i, n - l);
      for (size_t p = p_lo; p <= p_hi; ++p) {
        for (const uint32_t ordinal : list) {
          buf.candidates.push_back(Candidate{static_cast<uint32_t>(p),
                                             static_cast<uint32_t>(l),
                                             ordinal});
        }
      }
    }
  }
  if (buf.candidates.empty()) return;
  std::sort(buf.candidates.begin(), buf.candidates.end(), CandidateBefore);
  buf.candidates.erase(
      std::unique(buf.candidates.begin(), buf.candidates.end()),
      buf.candidates.end());

  // Phase 3: verify, mirroring JaccArVerifier::BestAboveRanksPartner's
  // arithmetic exactly (see the header contract) so scores agree with a
  // full rebuild to the bit. Window state is memoized across candidates
  // sharing a window, as the frozen verifier does.
  const bool fast_required = !weighted && metric == Metric::kJaccard;
  const double jacc_coeff = tau / (1.0 + tau);
  uint32_t memo_pos = 0;
  uint32_t memo_len = 0;
  bool memo_valid = false;
  size_t x = 0;
  LengthRange partner;
  for (const Candidate& c : buf.candidates) {
    if (!memo_valid || c.pos != memo_pos || c.len != memo_len) {
      memo_pos = c.pos;
      memo_len = c.len;
      memo_valid = true;
      buf.window_tokens.assign(tokens.begin() + c.pos,
                               tokens.begin() + c.pos + c.len);
      std::sort(buf.window_tokens.begin(), buf.window_tokens.end());
      buf.window_tokens.erase(
          std::unique(buf.window_tokens.begin(), buf.window_tokens.end()),
          buf.window_tokens.end());
      x = buf.window_tokens.size();
      partner = PartnerLengthRange(metric, x, tau);
      buf.window_set.clear();
      for (const TokenId t : buf.window_tokens) {
        // The memo is warm for every window token after phase 1.
        const uint32_t* d = buf.token_cache.Find(t);
        if (d != nullptr && *d != 0) buf.window_set.push_back(*d - 1);
      }
      std::sort(buf.window_set.begin(), buf.window_set.end());
    }
    if (stats != nullptr) ++stats->verified;
    const Entry& entry = entries_[c.origin];
    const double dx = static_cast<double>(x);
    double best = 0.0;
    for (const Form& f : entry.forms) {
      const size_t y = f.set.size();
      if (!partner.Contains(y)) continue;
      double effective_tau = tau;
      if (weighted) {
        if (f.weight <= 0.0) continue;
        effective_tau = tau / f.weight;
        if (effective_tau > 1.0) continue;  // even sim = 1 cannot pass
      }
      const size_t required =
          fast_required
              ? std::max<size_t>(
                    EpsCeil(jacc_coeff * (dx + static_cast<double>(y))), 1)
              : RequiredOverlap(metric, x, y, effective_tau);
      const size_t o = SortedOverlap(f.set, buf.window_set);
      if (o < required) continue;
      double s = SetSimilarity(metric, o, y, x);
      if (weighted) s *= f.weight;
      if (s > best) best = s;
    }
    if (ScorePasses(best, tau)) {
      Match m;
      m.token_begin = c.pos;
      m.token_len = c.len;
      m.entity = entry.id;
      m.score = best;
      m.best_derived = JaccArScore::kNoDerived;
      out.push_back(m);
      if (stats != nullptr) ++stats->matched;
    }
  }
}

DeltaLayer::DeltaLayer(const DerivedDictionary& frozen, const Options& options)
    : frozen_(frozen),
      options_(options),
      tokenizer_(options.tokenizer),
      frozen_origins_(frozen.num_origins()) {}

Result<std::shared_ptr<DeltaLayer>> DeltaLayer::Create(
    const DerivedDictionary& frozen, std::vector<std::string> rule_lines,
    const Options& options) {
  std::shared_ptr<DeltaLayer> layer(new DeltaLayer(frozen, options));
  MutexLock lock(layer->mu_);
  for (const std::string& line : rule_lines) {
    AEETES_RETURN_IF_ERROR(layer->AddRule(line));
  }
  layer->rule_lines_ = std::move(rule_lines);
  layer->Publish();
  return layer;
}

void DeltaLayer::EnsureFrozenMaps() {
  if (frozen_maps_built_) return;
  frozen_maps_built_ = true;
  const TokenDictionary& dict = frozen_.token_dict();
  std::vector<std::string> words;
  for (EntityId e = 0; e < frozen_origins_; ++e) {
    const Span<TokenId> entity = frozen_.origin_entity(e);
    words.clear();
    for (size_t i = 0; i < entity.size(); ++i) {
      words.emplace_back(dict.Text(entity[i]));
    }
    // First writer wins on duplicate texts: matches upsert semantics,
    // which only need *a* live origin per key.
    frozen_by_text_.emplace(JoinTokens(words), e);
    const auto [begin, end] = frozen_.DerivedRange(e);
    uint32_t lo = 0;
    uint32_t hi = 0;
    for (DerivedId d = begin; d < end; ++d) {
      const uint32_t sz = frozen_.ordered_set_size(d);
      if (lo == 0 || sz < lo) lo = sz;
      if (sz > hi) hi = sz;
    }
    frozen_min_sorted_.emplace_back(lo, e);
    frozen_max_sorted_.emplace_back(hi, e);
  }
  std::sort(frozen_min_sorted_.begin(), frozen_min_sorted_.end());
  std::sort(frozen_max_sorted_.begin(), frozen_max_sorted_.end(),
            std::greater<>());
}

Status DeltaLayer::AddRule(const std::string& line) {
  AEETES_ASSIGN_OR_RETURN([[maybe_unused]] RuleId id,
                          rules_.AddFromText(line, tokenizer_, delta_dict_));
  return Status::OK();
}

std::vector<DeltaIndex::Form> DeltaLayer::Expand(const TokenSeq& ids) {
  std::vector<RuleGroup> groups = SelectNonConflictGroups(
      FindApplicableRules(ids, rules_), options_.derivation.expander.clique_mode);
  std::vector<DeltaIndex::Form> forms;
  for (DerivedForm& form :
       ExpandEntity(ids, groups, options_.derivation.expander)) {
    DeltaIndex::Form f;
    f.set.assign(form.tokens.begin(), form.tokens.end());
    std::sort(f.set.begin(), f.set.end());
    f.set.erase(std::unique(f.set.begin(), f.set.end()), f.set.end());
    f.raw = std::move(form.tokens);
    f.applied = std::move(form.applied);
    f.weight = form.weight;
    forms.push_back(std::move(f));
  }
  return forms;
}

Status DeltaLayer::UpsertOne(const std::string& text, size_t* changed) {
  const std::vector<std::string> words = tokenizer_.TokenizeToStrings(text);
  if (words.empty()) {
    return Status::InvalidArgument("entity tokenizes to nothing: '" + text +
                                   "'");
  }
  const std::string key = JoinTokens(words);
  const auto frozen_it = frozen_by_text_.find(key);
  if (frozen_it != frozen_by_text_.end()) {
    const auto ts = std::lower_bound(tombstones_.begin(), tombstones_.end(),
                                     frozen_it->second);
    if (ts != tombstones_.end() && *ts == frozen_it->second) {
      tombstones_.erase(ts);  // un-tombstone: the frozen expansion returns
      ++*changed;
    }
    // Else a live frozen origin already carries this text: no-op.
    return Status::OK();
  }
  TokenSeq ids;
  ids.reserve(words.size());
  for (const std::string& w : words) ids.push_back(delta_dict_.GetOrAdd(w));
  std::vector<DeltaIndex::Form> forms = Expand(ids);
  const auto slot_it = slot_of_key_.find(key);
  if (slot_it != slot_of_key_.end()) {
    Slot& slot = slots_[slot_it->second];
    if (!slot.live || slot.forms.size() != forms.size()) ++*changed;
    slot.live = true;
    slot.forms = std::move(forms);
    return Status::OK();
  }
  Slot slot;
  slot.key = key;
  slot.tokens = words;
  slot.live = true;
  slot.forms = std::move(forms);
  slot_of_key_.emplace(key, static_cast<uint32_t>(slots_.size()));
  slots_.push_back(std::move(slot));
  ++*changed;
  return Status::OK();
}

size_t DeltaLayer::RemoveOne(const std::string& text) {
  const std::vector<std::string> words = tokenizer_.TokenizeToStrings(text);
  if (words.empty()) return 0;
  const std::string key = JoinTokens(words);
  size_t removed = 0;
  const auto frozen_it = frozen_by_text_.find(key);
  if (frozen_it != frozen_by_text_.end()) {
    const auto ts = std::lower_bound(tombstones_.begin(), tombstones_.end(),
                                     frozen_it->second);
    if (ts == tombstones_.end() || *ts != frozen_it->second) {
      tombstones_.insert(ts, frozen_it->second);
      ++removed;
    }
  }
  const auto slot_it = slot_of_key_.find(key);
  if (slot_it != slot_of_key_.end() && slots_[slot_it->second].live) {
    slots_[slot_it->second].live = false;
    ++removed;
  }
  return removed;
}

Result<size_t> DeltaLayer::UpsertEntities(
    const std::vector<std::string>& entities) {
  MutexLock lock(mu_);
  EnsureFrozenMaps();
  size_t changed = 0;
  for (const std::string& text : entities) {
    AEETES_RETURN_IF_ERROR(UpsertOne(text, &changed));
    log_.push_back(DeltaMutation{DeltaMutation::Kind::kUpsert, text});
  }
  Publish();
  return changed;
}

Result<size_t> DeltaLayer::RemoveEntities(
    const std::vector<std::string>& entities) {
  MutexLock lock(mu_);
  EnsureFrozenMaps();
  size_t removed = 0;
  for (const std::string& text : entities) {
    removed += RemoveOne(text);
    log_.push_back(DeltaMutation{DeltaMutation::Kind::kRemove, text});
  }
  Publish();
  return removed;
}

Result<size_t> DeltaLayer::UpsertRules(
    const std::vector<std::string>& rule_lines) {
  MutexLock lock(mu_);
  EnsureFrozenMaps();
  for (const std::string& line : rule_lines) {
    AEETES_RETURN_IF_ERROR(AddRule(line));
    rule_lines_.push_back(line);
    log_.push_back(DeltaMutation{DeltaMutation::Kind::kRules, line});
  }
  // Re-expand delta entities under the enlarged rule set (frozen
  // expansions are fixed; see the class contract).
  for (Slot& slot : slots_) {
    if (!slot.live) continue;
    TokenSeq ids;
    ids.reserve(slot.tokens.size());
    for (const std::string& w : slot.tokens) {
      ids.push_back(delta_dict_.GetOrAdd(w));
    }
    slot.forms = Expand(ids);
  }
  Publish();
  return rule_lines.size();
}

void DeltaLayer::Publish() {
  auto index = std::make_shared<DeltaIndex>();
  index->generation_ = log_.size();
  index->tombstones_ = tombstones_;

  const size_t num_tokens = delta_dict_.size();
  index->token_texts_.reserve(num_tokens);
  for (TokenId t = 0; t < num_tokens; ++t) {
    index->token_texts_.emplace_back(delta_dict_.Text(t));
    index->token_of_text_.emplace(index->token_texts_.back(), t);
  }
  index->postings_.resize(num_tokens);

  size_t delta_min = 0;
  size_t delta_max = 0;
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Slot& s = slots_[slot];
    if (!s.live) continue;
    const uint32_t ordinal = static_cast<uint32_t>(index->entries_.size());
    DeltaIndex::Entry entry;
    entry.id = static_cast<EntityId>(frozen_origins_ + slot);
    entry.tokens = s.tokens;
    entry.forms = s.forms;
    for (const DeltaIndex::Form& f : entry.forms) {
      const size_t y = f.set.size();
      if (delta_min == 0 || y < delta_min) delta_min = y;
      if (y > delta_max) delta_max = y;
      for (const uint32_t t : f.set) {
        std::vector<uint32_t>& list = index->postings_[t];
        if (list.empty() || list.back() != ordinal) list.push_back(ordinal);
      }
    }
    index->entries_.push_back(std::move(entry));
  }

  // Live frozen bounds: first non-tombstoned origin in each size order.
  size_t frozen_min = 0;
  size_t frozen_max = 0;
  if (tombstones_.size() < frozen_origins_) {
    if (tombstones_.empty()) {
      frozen_min = frozen_.min_set_size();
      frozen_max = frozen_.max_set_size();
    } else {
      EnsureFrozenMaps();
      for (const auto& [size, origin] : frozen_min_sorted_) {
        if (!std::binary_search(tombstones_.begin(), tombstones_.end(),
                                origin)) {
          frozen_min = size;
          break;
        }
      }
      for (const auto& [size, origin] : frozen_max_sorted_) {
        if (!std::binary_search(tombstones_.begin(), tombstones_.end(),
                                origin)) {
          frozen_max = size;
          break;
        }
      }
    }
  }

  index->has_live_ = frozen_max > 0 || delta_max > 0;
  index->e_min_ = frozen_min == 0
                      ? delta_min
                      : (delta_min == 0 ? frozen_min
                                        : std::min(frozen_min, delta_min));
  index->e_max_ = std::max(frozen_max, delta_max);

  MutexLock lock(snap_mu_);
  snapshot_ = std::move(index);
}

std::shared_ptr<const DeltaIndex> DeltaLayer::snapshot() const {
  MutexLock lock(snap_mu_);
  return snapshot_;
}

uint64_t DeltaLayer::generation() const {
  MutexLock lock(mu_);
  return log_.size();
}

std::vector<DeltaMutation> DeltaLayer::MutationsSince(
    uint64_t generation) const {
  MutexLock lock(mu_);
  std::vector<DeltaMutation> tail;
  for (size_t i = static_cast<size_t>(generation); i < log_.size(); ++i) {
    tail.push_back(log_[i]);
  }
  return tail;
}

Status DeltaLayer::Replay(const std::vector<DeltaMutation>& tail) {
  for (const DeltaMutation& m : tail) {
    switch (m.kind) {
      case DeltaMutation::Kind::kUpsert: {
        AEETES_ASSIGN_OR_RETURN([[maybe_unused]] size_t n,
                                UpsertEntities({m.text}));
        break;
      }
      case DeltaMutation::Kind::kRemove: {
        AEETES_ASSIGN_OR_RETURN([[maybe_unused]] size_t n,
                                RemoveEntities({m.text}));
        break;
      }
      case DeltaMutation::Kind::kRules: {
        AEETES_ASSIGN_OR_RETURN([[maybe_unused]] size_t n,
                                UpsertRules({m.text}));
        break;
      }
    }
  }
  return Status::OK();
}

std::vector<std::string> DeltaLayer::rule_lines() const {
  MutexLock lock(mu_);
  return rule_lines_;
}

std::string DeltaLayer::EntityText(EntityId id) const {
  MutexLock lock(mu_);
  if (id < frozen_origins_) return "";
  const size_t slot = id - frozen_origins_;
  if (slot >= slots_.size()) return "";
  return slots_[slot].key;
}

bool DeltaLayer::OwnsEntity(EntityId id) const {
  MutexLock lock(mu_);
  return id >= frozen_origins_ && id - frozen_origins_ < slots_.size();
}

size_t DeltaLayer::live_entities() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const Slot& s : slots_) n += s.live ? 1 : 0;
  return n;
}

size_t DeltaLayer::tombstone_count() const {
  MutexLock lock(mu_);
  return tombstones_.size();
}

Result<DerivedDictParts> BuildCompactedParts(const DerivedDictionary& frozen,
                                             const DeltaIndex& delta) {
  auto dict = std::make_unique<TokenDictionary>();
  std::vector<TokenSeq> origins;
  std::vector<DerivedEntity> derived;
  std::vector<DerivedId> origin_begin;
  origin_begin.push_back(0);

  const TokenDictionary& frozen_dict = frozen.token_dict();
  // Frozen token ids remap densely on first use, delta tokens intern by
  // text; shared texts collapse to one id exactly as a rebuild would.
  std::vector<TokenId> frozen_remap(frozen_dict.size(),
                                    static_cast<TokenId>(-1));
  const auto remap = [&](TokenId t) {
    if (frozen_remap[t] == static_cast<TokenId>(-1)) {
      frozen_remap[t] = dict->GetOrAdd(frozen_dict.Text(t));
    }
    return frozen_remap[t];
  };

  for (EntityId e = 0; e < frozen.num_origins(); ++e) {
    if (delta.IsTombstoned(e)) continue;
    const EntityId new_id = static_cast<EntityId>(origins.size());
    const Span<TokenId> entity = frozen.origin_entity(e);
    TokenSeq tokens;
    tokens.reserve(entity.size());
    for (size_t i = 0; i < entity.size(); ++i) tokens.push_back(remap(entity[i]));
    origins.push_back(std::move(tokens));
    const auto [begin, end] = frozen.DerivedRange(e);
    for (DerivedId d = begin; d < end; ++d) {
      const DerivedView view = frozen.derived(d);
      DerivedEntity de;
      de.origin = new_id;
      de.tokens.reserve(view.tokens.size());
      for (size_t i = 0; i < view.tokens.size(); ++i) {
        de.tokens.push_back(remap(view.tokens[i]));
      }
      de.applied_rules.assign(view.applied_rules.begin(),
                              view.applied_rules.end());
      de.weight = view.weight;
      derived.push_back(std::move(de));
    }
    origin_begin.push_back(static_cast<DerivedId>(derived.size()));
  }

  for (const DeltaIndex::Entry& entry : delta.entries()) {
    const EntityId new_id = static_cast<EntityId>(origins.size());
    TokenSeq tokens;
    tokens.reserve(entry.tokens.size());
    for (const std::string& w : entry.tokens) {
      tokens.push_back(dict->GetOrAdd(w));
    }
    origins.push_back(std::move(tokens));
    for (const DeltaIndex::Form& f : entry.forms) {
      DerivedEntity de;
      de.origin = new_id;
      de.tokens.reserve(f.raw.size());
      for (const uint32_t t : f.raw) {
        de.tokens.push_back(dict->GetOrAdd(delta.token_texts()[t]));
      }
      de.applied_rules = f.applied;
      de.weight = f.weight;
      derived.push_back(std::move(de));
    }
    origin_begin.push_back(static_cast<DerivedId>(derived.size()));
  }

  if (origins.empty()) {
    return Status::InvalidArgument(
        "compaction with no live entities (everything removed); delete the "
        "collection instead");
  }

  // Frequencies over the combined derived multiset, then ordered sets —
  // the exact BuildParts recipe, so ranks and filters behave as a full
  // rebuild's would.
  for (const DerivedEntity& de : derived) {
    for (const TokenId t : de.tokens) {
      AEETES_RETURN_IF_ERROR(dict->AddFrequency(t));
    }
  }
  dict->Freeze();
  for (DerivedEntity& de : derived) {
    de.ordered_set = BuildOrderedSet(de.tokens, *dict);
  }

  return DerivedDictionary::AssembleParts(
      std::move(origins), std::move(derived), std::move(origin_begin),
      std::move(dict), frozen.avg_applicable_rules());
}

}  // namespace aeetes
