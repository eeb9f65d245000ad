#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <utility>

#include "src/core/candidate_generator.h"
#include "src/core/scratch.h"
#include "src/core/verifier.h"
#include "src/datagen/profile.h"

namespace perfbench {

namespace {

// Sizes were chosen so each workload stresses a different layer (see
// README.md): USJob is verify-bound, DBWorld filter- and encode-bound,
// PubMed cheap per document so the serving path carries a large share.
constexpr WorkloadSpec kWorkloads[] = {
    {"usjob_batch", Mode::kBatch, "usjob", 4.0, 400, 0.75, 0.0},
    {"dbworld_batch", Mode::kBatch, "dbworld", 16.0, 400, 0.8, 0.0},
    {"pubmed_serve", Mode::kServe, "pubmed", 4.0, 400, 0.8, 160.0},
    {"pubmed_live", Mode::kLive, "pubmed", 4.0, 400, 0.8, 160.0},
};

/// Generated documents per document a run uses.
constexpr size_t kDocumentPool = 5;

aeetes::DatasetProfile BaseProfile(const std::string& name) {
  if (name == "usjob") return aeetes::USJobLikeProfile();
  if (name == "dbworld") return aeetes::DBWorldLikeProfile();
  return aeetes::PubMedLikeProfile();
}

/// Canonical per-layer metrics: (name, unit). BENCHMARK.json lists the
/// same names; README.md says which end-to-end metric each should move.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"text.encode_us", "us"},
    {"text.tokens", "count"},
    {"text.dict_growth", "count"},
    {"filter.us", "us"},
    {"filter.windows", "count"},
    {"filter.entries", "count"},
    {"filter.candidates", "count"},
    {"verify.us", "us"},
    {"verify.pairs", "count"},
    {"verify.matches", "count"},
    {"verify.match_ratio", "ratio"},
    {"build.derive_ms", "ms"},
    {"build.index_ms", "ms"},
    {"build.derived_forms", "count"},
    {"io.snapshot_load_ms", "ms"},
    {"io.snapshot_mb", "MB"},
    {"runtime.fanout_us", "us"},
    {"runtime.steals", "count"},
    {"server.residual_ms", "ms"},
    {"server.batch_jobs", "jobs"},
    {"server.response_bytes", "bytes"},
    {"server.json_parse_us", "us"},
    {"delta.upsert_ms", "ms"},
    {"delta.overhead_us", "us"},
    {"delta.entities", "count"},
    {"delta.tombstones", "count"},
    {"compact.s", "s"},
    {"compact.count", "count"},
    {"loadgen.late_p99_ms", "ms"},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

aeetes::SyntheticDataset Generate(const WorkloadSpec& spec, uint64_t seed,
                                  bool quick) {
  // The dictionary (entities and rules) comes from the profile's own seed,
  // so a workload is the same engine on every run; the run's seed draws
  // the documents from a pool of generated ones. The generator makes the
  // dictionary before the documents from one random stream, so the pool
  // size does not change the dictionary.
  aeetes::DatasetProfile p = BaseProfile(spec.profile);
  const double scale = quick ? 0.25 : spec.dict_scale;
  const double root = std::pow(scale, 0.25);
  auto scaled = [](size_t v, double f) {
    return static_cast<size_t>(std::llround(static_cast<double>(v) * f));
  };
  p.num_entities = scaled(p.num_entities, scale);
  p.entity_vocab = scaled(p.entity_vocab, root);
  p.synonym_vocab = scaled(p.synonym_vocab, root);
  p.background_vocab = scaled(p.background_vocab, root);
  const size_t documents = quick ? 40 : spec.documents;
  p.num_documents = kDocumentPool * documents;
  aeetes::SyntheticDataset ds = aeetes::GenerateDataset(p);

  std::vector<std::string> pool = std::move(ds.documents);
  std::mt19937_64 rng(seed);
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(documents);
  ds.documents = std::move(pool);
  ds.ground_truth.clear();  // offsets referred to the unsampled pool
  return ds;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  docs += o.docs;
  encode_s += o.encode_s;
  filter_s += o.filter_s;
  verify_s += o.verify_s;
  tokens += o.tokens;
  windows += o.windows;
  entries += o.entries;
  candidates += o.candidates;
  pairs += o.pairs;
  matches += o.matches;
  return *this;
}

size_t TracedDoc(aeetes::Aeetes& engine, const std::string& text, double tau,
                 Tracer& tracer, uint64_t request,
                 aeetes::ExtractScratch& scratch, LayerTotals& totals) {
  const aeetes::AeetesOptions& options = engine.options();
  aeetes::CandidateGenOptions gen_options;
  gen_options.positional_filter = options.positional_filter;
  aeetes::JaccArOptions jopts;
  jopts.metric = options.metric;
  jopts.weighted = options.weighted;

  Scope doc_span(tracer, "doc", request);
  const double t0 = Now();
  aeetes::Document doc;
  {
    Scope s(tracer, "EncodeDocument", request);
    doc = engine.EncodeDocument(text);
  }
  const double t1 = Now();
  aeetes::FilterStats fs;
  {
    Scope s(tracer, "GenerateCandidatesInto", request);
    fs = aeetes::GenerateCandidatesInto(
        options.strategy, doc, engine.derived_dictionary(), engine.index(),
        tau, options.metric, gen_options, scratch);
  }
  const double t2 = Now();
  aeetes::VerifyStats vs;
  {
    Scope s(tracer, "VerifyCandidatesInto", request);
    aeetes::VerifyCandidatesInto(scratch.candidates, doc,
                                 engine.derived_dictionary(), tau, jopts,
                                 scratch.matches, scratch.ordered_set,
                                 scratch.ordered_ranks, &vs);
  }
  const double t3 = Now();
  totals.docs += 1;
  totals.encode_s += t1 - t0;
  totals.filter_s += t2 - t1;
  totals.verify_s += t3 - t2;
  totals.tokens += doc.size();
  totals.windows += fs.windows;
  totals.entries += fs.entries_accessed;
  totals.candidates += fs.candidates;
  totals.pairs += vs.verified;
  totals.matches += vs.matched;
  return scratch.matches.size();
}

void LayerValues(const LayerTotals& t, std::map<std::string, double>& values) {
  const double n = t.docs == 0 ? 1.0 : static_cast<double>(t.docs);
  values["text.encode_us"] = t.encode_s * 1e6 / n;
  values["text.tokens"] = static_cast<double>(t.tokens);
  values["filter.us"] = t.filter_s * 1e6 / n;
  values["filter.windows"] = static_cast<double>(t.windows);
  values["filter.entries"] = static_cast<double>(t.entries);
  values["filter.candidates"] = static_cast<double>(t.candidates);
  values["verify.us"] = t.verify_s * 1e6 / n;
  values["verify.pairs"] = static_cast<double>(t.pairs);
  values["verify.matches"] = static_cast<double>(t.matches);
  values["verify.match_ratio"] =
      t.pairs == 0 ? 0.0
                   : static_cast<double>(t.matches) /
                         static_cast<double>(t.pairs);
}

void BuildValues(const aeetes::Aeetes& engine,
                 std::map<std::string, double>& values) {
  auto gauge = [&engine](const char* name) {
    const aeetes::Gauge* g = engine.metrics().FindGauge(name);
    return g == nullptr ? 0.0 : static_cast<double>(g->value());
  };
  values["build.derive_ms"] = gauge("build.derive_us") / 1e3;
  values["build.index_ms"] = gauge("build.index_us") / 1e3;
  values["build.derived_forms"] = gauge("build.derived");
}

void EmitPerLayer(Report& report,
                  const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    report.Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void PrintSelfTimes(const Tracer& tracer) {
  std::printf("%-24s %8s %14s %14s\n", "span (self time)", "spans",
              "total ms", "mean us");
  for (const auto& [name, entry] : tracer.SelfTimes()) {
    std::printf("%-24s %8llu %14.3f %14.2f\n", name.c_str(),
                static_cast<unsigned long long>(entry.first),
                entry.second * 1e3,
                entry.second * 1e6 / static_cast<double>(entry.first));
  }
}

}  // namespace perfbench
