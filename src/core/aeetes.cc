#include "src/core/aeetes.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "src/common/metrics.h"
#include "src/common/perf_counters.h"
#include "src/text/token_set.h"

namespace aeetes {

namespace {

/// Hardware counters for sampled Extract calls. perf_event fds follow the
/// opening thread, so there is one lazily-opened group per thread; on
/// machines without perf_event_open this is the null backend and every
/// Read comes back invalid (the trace simply carries no perf stats).
PerfCounterGroup& ThreadPerfCounters() {
  thread_local PerfCounterGroup group;
  return group;
}

}  // namespace

Aeetes::PipelineMetrics::PipelineMetrics(MetricsRegistry& registry)
    : extract_calls(registry.RegisterCounter("extract.calls",
                                             "Extract invocations")),
      filter_windows(registry.RegisterCounter(
          "filter.windows", "window positions enumerated")),
      filter_substrings(registry.RegisterCounter(
          "filter.substrings", "substrings probed against the index")),
      filter_prefix_rebuilds(registry.RegisterCounter(
          "filter.prefix_rebuilds", "prefixes computed from scratch")),
      filter_prefix_updates(registry.RegisterCounter(
          "filter.prefix_updates",
          "incremental prefix updates (Extend/Migrate)")),
      filter_entries_accessed(registry.RegisterCounter(
          "filter.entries_accessed",
          "posting entries touched (Figure 11 measure)")),
      filter_length_groups_skipped(registry.RegisterCounter(
          "filter.length_groups_skipped",
          "length groups batch-skipped by the length filter")),
      filter_origin_groups_skipped(registry.RegisterCounter(
          "filter.origin_groups_skipped",
          "origin groups batch-skipped as known candidates")),
      filter_candidates(registry.RegisterCounter(
          "filter.candidates", "candidate (substring, origin) pairs")),
      filter_positional_pruned(registry.RegisterCounter(
          "filter.positional_pruned",
          "candidates pruned by the positional filter")),
      verify_pairs(registry.RegisterCounter("verify.pairs",
                                            "candidate pairs verified")),
      verify_matches(registry.RegisterCounter(
          "verify.matches", "pairs reaching the threshold")),
      extract_latency_us(registry.RegisterHistogram(
          "extract.latency_us", "end-to-end Extract wall time (us)")),
      filter_latency_us(registry.RegisterHistogram(
          "filter.latency_us", "candidate generation wall time (us)")),
      verify_latency_us(registry.RegisterHistogram(
          "verify.latency_us", "verification wall time (us)")) {}

void Aeetes::PublishBuildMetrics(double index_build_ms) {
  const DerivedDictionary::BuildStats& bs = dd_->build_stats();
  metrics_
      .RegisterGauge("build.origins", "origin entities in the dictionary")
      .Set(static_cast<int64_t>(dd_->num_origins()));
  metrics_.RegisterGauge("build.derived", "derived entities |E|")
      .Set(static_cast<int64_t>(dd_->num_derived()));
  metrics_
      .RegisterGauge("build.expand_forms",
                     "derived forms emitted during expansion")
      .Set(static_cast<int64_t>(bs.expand_forms));
  metrics_
      .RegisterGauge("build.expand_dedup_hits",
                     "duplicate derived forms dropped")
      .Set(static_cast<int64_t>(bs.expand_dedup_hits));
  metrics_
      .RegisterGauge("build.expand_capped_entities",
                     "entities whose |D(e)| hit the cap")
      .Set(static_cast<int64_t>(bs.capped_entities));
  metrics_
      .RegisterGauge("build.clique_steps",
                     "clique solver iterations across entities")
      .Set(static_cast<int64_t>(bs.clique_steps));
  metrics_
      .RegisterGauge("build.derive_us",
                     "derived dictionary construction time (us)")
      .Set(static_cast<int64_t>(bs.derive_ms * 1e3));
  metrics_.RegisterGauge("build.index_us", "index construction time (us)")
      .Set(static_cast<int64_t>(index_build_ms * 1e3));
  index_->PublishMetrics(metrics_);
}

Result<std::unique_ptr<Aeetes>> Aeetes::Build(
    std::vector<TokenSeq> entities, const RuleSet& rules,
    std::unique_ptr<TokenDictionary> dict, AeetesOptions options) {
  AEETES_ASSIGN_OR_RETURN(
      DerivedDictParts parts,
      DerivedDictionary::BuildParts(std::move(entities), rules,
                                    std::move(dict), options.derivation));
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<EngineImage> image,
                          EngineImage::Pack(std::move(parts)));
  return FromImage(std::move(image), options);
}

Result<std::unique_ptr<Aeetes>> Aeetes::BuildFromText(
    const std::vector<std::string>& entities,
    const std::vector<std::string>& rule_lines, AeetesOptions options) {
  Tokenizer tokenizer(options.tokenizer);
  auto dict = std::make_unique<TokenDictionary>();
  std::vector<TokenSeq> encoded;
  encoded.reserve(entities.size());
  for (const std::string& e : entities) {
    encoded.push_back(dict->Encode(tokenizer.TokenizeToStrings(e)));
  }
  RuleSet rules;
  for (const std::string& line : rule_lines) {
    AEETES_ASSIGN_OR_RETURN([[maybe_unused]] RuleId id,
                            rules.AddFromText(line, tokenizer, *dict));
  }
  return Build(std::move(encoded), rules, std::move(dict), options);
}

Result<std::unique_ptr<Aeetes>> Aeetes::FromDerivedDictionary(
    std::unique_ptr<DerivedDictionary> dd, AeetesOptions options) {
  if (dd == nullptr) {
    return Status::InvalidArgument("derived dictionary must be non-null");
  }
  AEETES_ASSIGN_OR_RETURN(DerivedDictParts parts, dd->ToParts());
  AEETES_ASSIGN_OR_RETURN(std::unique_ptr<EngineImage> image,
                          EngineImage::Pack(std::move(parts)));
  return FromImage(std::move(image), options);
}

Result<std::unique_ptr<Aeetes>> Aeetes::FromImage(
    std::unique_ptr<EngineImage> image, AeetesOptions options) {
  if (image == nullptr) {
    return Status::InvalidArgument("engine image must be non-null");
  }
  auto aeetes =
      std::unique_ptr<Aeetes>(new Aeetes(options, std::move(image)));
  aeetes->PublishBuildMetrics(aeetes->image_->stats().index_ms);
  return aeetes;
}

void Aeetes::PublishSnapshotMetrics(double load_us, uint64_t bytes) const {
  metrics_
      .RegisterGauge("snapshot.load_us",
                     "snapshot open + wire + validate time (us)")
      .Set(static_cast<int64_t>(load_us));
  metrics_.RegisterGauge("snapshot.bytes", "engine image size on disk")
      .Set(static_cast<int64_t>(bytes));
  metrics_
      .RegisterGauge("snapshot.mmap",
                     "1 when the arena is a read-only file mapping")
      .Set(image().stats().mmap_backed ? 1 : 0);
}

void Aeetes::EnableFlightRecorder(const FlightRecorderOptions& options) {
  flight_ = std::make_unique<FlightRecorder>(options);
}

Document Aeetes::EncodeDocument(std::string_view text) const {
  return Document::FromText(text, tokenizer_, dd_->token_dict());
}

Result<Aeetes::ExtractionResult> Aeetes::Extract(const Document& doc,
                                                 double tau,
                                                 TraceRecorder* trace) const {
  return ExtractWithStrategy(doc, tau, options_.strategy, trace);
}

Result<Aeetes::ExtractionResult> Aeetes::ExtractWithStrategy(
    const Document& doc, double tau, FilterStrategy strategy,
    TraceRecorder* trace) const {
  ExtractScratch scratch;
  AEETES_ASSIGN_OR_RETURN(
      const ExtractionSummary summary,
      ExtractIntoWithStrategy(scratch, doc, tau, strategy, trace));
  ExtractionResult result;
  result.matches = std::move(scratch.matches);
  result.filter_stats = summary.filter_stats;
  result.verify_stats = summary.verify_stats;
  result.filter_ms = summary.filter_ms;
  result.verify_ms = summary.verify_ms;
  return result;
}

Result<Aeetes::ExtractionSummary> Aeetes::ExtractInto(
    ExtractScratch& scratch, const Document& doc, double tau,
    TraceRecorder* trace) const {
  return ExtractIntoWithStrategy(scratch, doc, tau, options_.strategy, trace);
}

Result<Aeetes::ExtractionSummary> Aeetes::ExtractIntoWithStrategy(
    ExtractScratch& scratch, const Document& doc, double tau,
    FilterStrategy strategy, TraceRecorder* trace) const {
  if (!(tau > 0.0) || tau > 1.0) {
    return Status::InvalidArgument("threshold must be in (0, 1]");
  }
  ExtractionSummary result;

  // Delta overlay: grab one snapshot for the whole call (RCU read side —
  // mutations swap in fresh snapshots and never touch this one). An empty
  // overlay reduces to the frozen-only fast path below.
  std::shared_ptr<const DeltaIndex> delta;
  if (delta_ != nullptr) {
    delta = delta_->snapshot();
    if (delta != nullptr && delta->passthrough()) delta.reset();
  }
  if (delta != nullptr && !delta->has_live_entities()) {
    // Every entity is tombstoned and none upserted: the live dictionary is
    // empty, so extraction is too.
    scratch.candidates.clear();
    scratch.matches.clear();
    return result;
  }

  // Flight recorder: when the caller did not bring a TraceRecorder and the
  // sampler picks this call, capture it into the scratch-owned recorder
  // (and bracket it with hardware counter readings). Recorder off — the
  // default — costs one null-check; unsampled calls cost one relaxed add.
  FlightRecorder* const recorder = flight_.get();
  TraceRecorder* active_trace = trace;
  bool flight_sampled = false;
  PerfSample perf_before;
  if (recorder != nullptr && trace == nullptr && recorder->ShouldSample()) {
    scratch.flight_trace.Clear();
    active_trace = &scratch.flight_trace;
    flight_sampled = true;
    perf_before = ThreadPerfCounters().Read();
  }

  double elapsed_ms = 0.0;
  {
    ScopedTimer extract_timer(&pipeline_.extract_latency_us, &elapsed_ms);
    TraceScope extract_span(active_trace, "extract");

    {
      ScopedTimer timer(&pipeline_.filter_latency_us, &result.filter_ms);
      CandidateGenOptions gen_options;
      gen_options.positional_filter = options_.positional_filter;
      if (delta != nullptr) {
        // Enumerate the window lengths a rebuild over the live entity set
        // would: tombstones can shrink the size range, upserts widen it.
        gen_options.override_entity_sizes = true;
        gen_options.entity_size_min = delta->entity_size_min();
        gen_options.entity_size_max = delta->entity_size_max();
      }
      result.filter_stats = GenerateCandidatesInto(
          strategy, doc, *dd_, *index_, tau, options_.metric, gen_options,
          scratch, active_trace);
      if (delta != nullptr && delta->has_tombstones()) {
        std::vector<Candidate>& cands = scratch.candidates;
        cands.erase(std::remove_if(cands.begin(), cands.end(),
                                   [&delta](const Candidate& c) {
                                     return delta->IsTombstoned(c.origin);
                                   }),
                    cands.end());
      }
    }

    {
      ScopedTimer timer(&pipeline_.verify_latency_us, &result.verify_ms);
      TraceScope verify_span(active_trace, "verify");
      JaccArOptions jopts;
      jopts.metric = options_.metric;
      jopts.weighted = options_.weighted;
      VerifyCandidatesInto(scratch.candidates, doc, *dd_, tau, jopts,
                           scratch.matches, scratch.ordered_set,
                           scratch.ordered_ranks, &result.verify_stats);
      if (delta != nullptr) {
        // Delta matches append as a second sorted run with disjoint entity
        // ids; one merge restores the global (begin, len, entity) order.
        const size_t frozen_end = scratch.matches.size();
        const LengthRange delta_win = SubstringLengthBounds(
            options_.metric, delta->entity_size_min(),
            delta->entity_size_max(), tau);
        delta->CollectMatches(doc, dd_->token_dict(), tau, options_.metric,
                              options_.weighted, delta_win, scratch.delta,
                              scratch.matches, &result.verify_stats);
        std::inplace_merge(
            scratch.matches.begin(),
            scratch.matches.begin() + static_cast<ptrdiff_t>(frozen_end),
            scratch.matches.end(), [](const Match& a, const Match& b) {
              if (a.token_begin != b.token_begin) {
                return a.token_begin < b.token_begin;
              }
              if (a.token_len != b.token_len) {
                return a.token_len < b.token_len;
              }
              return a.entity < b.entity;
            });
      }
      verify_span.AddStat("verified", result.verify_stats.verified);
      verify_span.AddStat("matched", result.verify_stats.matched);
    }
  }

  if (recorder != nullptr) {
    FlightRecorder::CallInfo info;
    info.elapsed_ms = elapsed_ms;
    info.filter_ms = result.filter_ms;
    info.verify_ms = result.verify_ms;
    info.doc_tokens = doc.size();
    info.matches = scratch.matches.size();
    info.label = FilterStrategyName(strategy);
    if (flight_sampled) {
      info.perf = ThreadPerfCounters().Read().DeltaSince(perf_before);
      if (info.perf.valid) {
        // Root span id is 0: the recorder was Clear()ed above, so
        // "extract" was the first span it opened.
        scratch.flight_trace.AddStat(0, "perf.cycles", info.perf.cycles);
        scratch.flight_trace.AddStat(0, "perf.instructions",
                                     info.perf.instructions);
        scratch.flight_trace.AddStat(0, "perf.cache_misses",
                                     info.perf.cache_misses);
        scratch.flight_trace.AddStat(0, "perf.branch_misses",
                                     info.perf.branch_misses);
      }
      recorder->RecordCall(info, &scratch.flight_trace);
    } else {
      recorder->RecordCall(info, nullptr);
    }
  }

  // One relaxed atomic add per counter per call: the per-call structs stay
  // the synchronous view, the registry accumulates across calls/threads.
  const FilterStats& fs = result.filter_stats;
  pipeline_.extract_calls.Increment();
  pipeline_.filter_windows.Add(fs.windows);
  pipeline_.filter_substrings.Add(fs.substrings);
  pipeline_.filter_prefix_rebuilds.Add(fs.prefix_rebuilds);
  pipeline_.filter_prefix_updates.Add(fs.prefix_updates);
  pipeline_.filter_entries_accessed.Add(fs.entries_accessed);
  pipeline_.filter_length_groups_skipped.Add(fs.length_groups_skipped);
  pipeline_.filter_origin_groups_skipped.Add(fs.origin_groups_skipped);
  pipeline_.filter_candidates.Add(fs.candidates);
  pipeline_.filter_positional_pruned.Add(fs.positional_pruned);
  pipeline_.verify_pairs.Add(result.verify_stats.verified);
  pipeline_.verify_matches.Add(result.verify_stats.matched);
  return result;
}

Result<std::vector<Aeetes::Lookup>> Aeetes::LookupString(
    std::string_view mention, double tau, size_t k) const {
  if (!(tau > 0.0) || tau > 1.0) {
    return Status::InvalidArgument("threshold must be in (0, 1]");
  }
  std::vector<Lookup> hits;
  const Document doc = EncodeDocument(mention);
  if (doc.size() == 0) return hits;

  // The mention is exactly one window; it must be an admissible window
  // length, the same gate document extraction applies.
  const LengthRange win_len = SubstringLengthBounds(
      options_.metric, dd_->min_set_size(), dd_->max_set_size(), tau);
  if (!win_len.Contains(doc.size())) return hits;

  const TokenSeq ordered = BuildOrderedSet(doc.tokens(), dd_->token_dict());
  const size_t set_size = ordered.size();

  // Reuse the indexed filter: probe every distinct mention token against
  // the clustered index under the length and prefix filters. (The
  // document path probes only the mention-side tau-prefix; probing the
  // full set is equally sound — it can only admit extra candidates, and
  // verification below is exact.)
  const LengthRange partner =
      PartnerLengthRange(options_.metric, set_size, tau);
  std::vector<char> seen(dd_->num_origins(), 0);
  std::vector<EntityId> origins;
  for (const TokenId t : ordered) {
    const ClusteredIndex::ListRange list = index_->list(t);
    if (list.empty()) continue;
    for (uint32_t g = list.begin; g < list.end; ++g) {
      const LengthGroup& lg = index_->length_groups()[g];
      if (!partner.Contains(lg.length)) continue;
      const size_t prefix_len =
          PrefixLength(options_.metric, lg.length, tau);
      for (uint32_t og = lg.begin; og < lg.end; ++og) {
        const OriginGroup& origin_group = index_->origin_groups()[og];
        if (seen[origin_group.origin]) continue;
        for (uint32_t i = origin_group.begin; i < origin_group.end; ++i) {
          if (index_->entries()[i].pos >= prefix_len) continue;
          seen[origin_group.origin] = 1;
          origins.push_back(origin_group.origin);
          break;
        }
      }
    }
  }

  JaccArOptions jopts;
  jopts.metric = options_.metric;
  jopts.weighted = options_.weighted;
  const JaccArVerifier verifier(*dd_, jopts);
  for (const EntityId e : origins) {
    const JaccArScore s = verifier.BestAbove(e, ordered, tau);
    if (ScorePasses(s.score, tau)) {
      hits.push_back(Lookup{e, s.score, s.best_derived});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Lookup& a, const Lookup& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.entity < b.entity;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

std::string Aeetes::EntityText(EntityId e) const {
  if (delta_ != nullptr && e >= dd_->num_origins()) {
    return delta_->EntityText(e);
  }
  const Span<TokenId> tokens = dd_->origin_entity(e);
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += ' ';
    out += dd_->token_dict().Text(tokens[i]);
  }
  return out;
}

Aeetes::MatchExplanation Aeetes::Explain(const Match& match,
                                         const Document& doc) const {
  MatchExplanation ex;
  ex.score = match.score;
  ex.substring_text = doc.SubstringText(match.token_begin, match.token_len);
  ex.entity_text = EntityText(match.entity);
  if (match.best_derived != JaccArScore::kNoDerived &&
      match.best_derived < dd_->num_derived()) {
    const DerivedView witness = dd_->derived(match.best_derived);
    for (size_t i = 0; i < witness.tokens.size(); ++i) {
      if (i > 0) ex.witness_text += ' ';
      ex.witness_text += dd_->token_dict().Text(witness.tokens[i]);
    }
    ex.applied_rules.assign(witness.applied_rules.begin(),
                            witness.applied_rules.end());
  }
  return ex;
}

}  // namespace aeetes
