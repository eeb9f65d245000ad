// In-process batch workloads: one thread encodes and extracts every
// document of the corpus, pass after pass, for the run's duration.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "perfbench/runs.h"
#include "perfbench/workloads.h"
#include "src/baseline/faerie_r.h"
#include "src/core/aeetes.h"

namespace perfbench {

namespace {

using MatchKey = std::tuple<uint32_t, uint32_t, aeetes::EntityId>;

std::vector<MatchKey> Keys(const std::vector<aeetes::Match>& matches) {
  std::vector<MatchKey> keys;
  keys.reserve(matches.size());
  for (const aeetes::Match& m : matches) {
    keys.emplace_back(m.token_begin, m.token_len, m.entity);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Per-document latencies and time of the untraced passes.
struct Passes {
  std::vector<double> latency_ms;
  size_t passes = 0;
  double busy_s = 0.0;  // inside the timed calls
  double wall_s = 0.0;  // whole passes, loop included
};

}  // namespace

int RunBatch(const Args& args, const WorkloadSpec& spec) {
  Report report;
  Tracer tracer(args.trace);
  report.Info("workload", spec.name);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("nproc", static_cast<double>(Nproc()));
  report.Info("threads", 1.0);
  const double calibration_before = CalibrationMs();
  const double memory_calibration_before = MemoryCalibrationMs();

  const aeetes::SyntheticDataset ds = Generate(spec, args.seed, args.quick);
  const std::vector<std::string>& texts = ds.documents;
  report.Info("entities", static_cast<double>(ds.entity_texts.size()));
  report.Info("documents", static_cast<double>(texts.size()));
  report.Info("tau", spec.tau);

  // Set-up: the offline build, several times; the median is reported.
  // Each engine is freed before the next build so peak memory stays that
  // of one engine.
  const int builds = args.trace ? 1 : 3;
  std::vector<double> build_s;
  std::unique_ptr<aeetes::Aeetes> engine;
  for (int b = 0; b < builds; ++b) {
    engine.reset();
    const double t0 = Now();
    Scope span(tracer, "BuildFromText");
    auto built = aeetes::Aeetes::BuildFromText(ds.entity_texts, ds.rule_lines);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*built);
    build_s.push_back(Now() - t0);
  }
  const size_t dict_after_build =
      engine->derived_dictionary().token_dict().size();

  // Warm-up: one pass that interns every document's tokens and records
  // each document's match count, so the timed passes see the steady state
  // a long-lived caller sees and can be checked against the first answer.
  aeetes::ExtractScratch scratch;
  std::vector<size_t> expected(texts.size(), 0);
  for (size_t i = 0; i < texts.size(); ++i) {
    const aeetes::Document doc = engine->EncodeDocument(texts[i]);
    if (engine->ExtractInto(scratch, doc, spec.tau).ok()) {
      expected[i] = scratch.matches.size();
    }
  }

  // Whole passes over the corpus until the run's time is up, so every
  // document weighs the same in the percentiles. A traced run sends each
  // document through ExtractInto and through the layers one by one, in
  // alternating order: the untraced call is the reference for the tracing
  // overhead, and pairing them puts host drift on both sides.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Passes plain;
  LayerTotals counts;  // first pass only: exact per-corpus counts
  LayerTotals traced;  // every pass: per-document times
  double traced_s = 0.0;
  auto untraced_doc = [&](size_t i) {
    const double t0 = Now();
    const aeetes::Document doc = engine->EncodeDocument(texts[i]);
    auto r = engine->ExtractInto(scratch, doc, spec.tau);
    const double t1 = Now();
    plain.latency_ms.push_back((t1 - t0) * 1e3);
    plain.busy_s += t1 - t0;
    ++attempted;
    if (!r.ok() || scratch.matches.size() != expected[i]) ++failed;
  };
  auto traced_doc = [&](size_t i, size_t pass) {
    LayerTotals one;
    const double t0 = Now();
    const size_t matches = TracedDoc(*engine, texts[i], spec.tau, tracer,
                                     pass * texts.size() + i, scratch, one);
    traced_s += Now() - t0;
    traced += one;
    if (pass == 0) counts += one;
    ++attempted;
    if (matches != expected[i]) ++failed;
  };
  const double deadline = Now() + args.seconds;
  for (size_t pass = 0; pass < 2 || Now() < deadline; ++pass) {
    const double pass_start = Now();
    for (size_t i = 0; i < texts.size(); ++i) {
      if (!args.trace) {
        untraced_doc(i);
      } else if ((i + pass) % 2 == 0) {
        untraced_doc(i);
        traced_doc(i, pass);
      } else {
        traced_doc(i, pass);
        untraced_doc(i);
      }
    }
    ++plain.passes;
    plain.wall_s += Now() - pass_start;
  }
  const double rss_mb = PeakRssMb(::getpid());

  std::map<std::string, double> layers;
  if (args.trace) {
    LayerValues(counts, layers);
    const double n = static_cast<double>(traced.docs);
    layers["text.encode_us"] = traced.encode_s * 1e6 / n;
    layers["filter.us"] = traced.filter_s * 1e6 / n;
    layers["verify.us"] = traced.verify_s * 1e6 / n;
    layers["text.dict_growth"] = static_cast<double>(
        engine->derived_dictionary().token_dict().size() - dict_after_build);
    BuildValues(*engine, layers);

    // The three layer self-times against the untraced time per document.
    const double untraced_us =
        plain.busy_s * 1e6 / static_cast<double>(plain.latency_ms.size());
    const double layer_us =
        (traced.encode_s + traced.filter_s + traced.verify_s) * 1e6 / n;
    const double traced_us = traced_s * 1e6 / n;
    PrintSelfTimes(tracer);
    std::printf("untraced us/doc %.2f, traced us/doc %.2f, "
                "encode+filter+verify self us/doc %.2f\n",
                untraced_us, traced_us, layer_us);
    std::printf("tracing overhead %.2f%% of untraced docs_per_s; layer sum "
                "vs untraced %+.2f%% (stated tolerance 2%%)\n",
                (traced_us / untraced_us - 1.0) * 100.0,
                (layer_us / untraced_us - 1.0) * 100.0);
    report.Info("trace.overhead_pct", (traced_us / untraced_us - 1.0) * 100.0);
    report.Info("trace.layer_sum_gap_pct",
                (layer_us / untraced_us - 1.0) * 100.0);
    const std::string trace_path = args.workdir + "/trace_" + spec.name +
                                   "_" + std::to_string(args.seed) + ".json";
    if (tracer.Write(trace_path)) report.Info("trace_file", trace_path);
  }

  // Output check, outside every timed region: Aeetes against FaerieR on a
  // seeded sample of documents.
  {
    auto faerie = aeetes::FaerieR::Build(engine->derived_dictionary());
    if (!faerie.ok()) {
      report.Fail("FaerieR build: " + faerie.status().ToString());
    } else {
      std::mt19937_64 rng(args.seed ^ 0xFAE81EULL);
      const size_t sample = std::min<size_t>(8, texts.size());
      size_t mismatched = 0;
      for (size_t k = 0; k < sample; ++k) {
        const size_t i = rng() % texts.size();
        const aeetes::Document doc = engine->EncodeDocument(texts[i]);
        auto r = engine->ExtractInto(scratch, doc, spec.tau);
        ++attempted;
        if (!r.ok() ||
            Keys(scratch.matches) != Keys((*faerie)->Extract(doc, spec.tau))) {
          ++mismatched;
        }
      }
      failed += mismatched;
      report.Info("faerie_sample_docs", static_cast<double>(sample));
      if (mismatched != 0) {
        report.Fail(std::to_string(mismatched) +
                    " sampled documents differ from FaerieR");
      }
    }
  }

  report.Info("calibration_ms_before", calibration_before);
  report.Info("calibration_ms_after", CalibrationMs());
  report.Info("memory_calibration_ms_before", memory_calibration_before);
  report.Info("memory_calibration_ms_after", MemoryCalibrationMs());
  report.Info("latency_samples", static_cast<double>(plain.latency_ms.size()));
  report.Info("passes", static_cast<double>(plain.passes));
  for (size_t b = 0; b < build_s.size(); ++b) {
    report.Info("setup_s_" + std::to_string(b), build_s[b]);
  }

  if (args.trace) {
    EmitPerLayer(report, layers);
  } else {
    report.Metric("docs_per_s",
                  static_cast<double>(plain.latency_ms.size()) / plain.wall_s,
                  "docs/s");
    report.Metric("p50_ms", Percentile(plain.latency_ms, 0.50), "ms");
    report.Metric("p99_ms", Percentile(plain.latency_ms, 0.99), "ms");
    report.Metric("setup_s", Median(build_s), "s");
    report.Metric("rss_peak_mb", rss_mb, "MB");
  }
  return report.Finish(attempted, failed);
}

}  // namespace perfbench
