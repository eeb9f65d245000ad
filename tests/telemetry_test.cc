// Tests for the operator metrics path (DESIGN.md §13): the Prometheus
// exposition and the flight recorder's K-slowest retention.

#include "src/common/telemetry.h"

#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/aeetes.h"

#ifndef AEETES_DATA_DIR
#define AEETES_DATA_DIR "data"
#endif

namespace aeetes {
namespace {

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(PrometheusTest, GoldenExposition) {
  MetricsRegistry registry;
  Counter& calls =
      registry.RegisterCounter("extract.calls", "Extract() invocations");
  Gauge& bytes = registry.RegisterGauge("index.bytes", "resident index size");
  Histogram& lat = registry.RegisterHistogram(
      "extract.latency_us", "end-to-end latency \"us\"\nsecond line");
  calls.Add(3);
  bytes.Set(-7);
  lat.Record(0);
  lat.Record(1);
  lat.Record(5);
  lat.Record(uint64_t{1} << 20);

  std::string expected =
      "# HELP aeetes_extract_calls_total Extract() invocations\n"
      "# TYPE aeetes_extract_calls_total counter\n"
      "aeetes_extract_calls_total 3\n"
      "# HELP aeetes_index_bytes resident index size\n"
      "# TYPE aeetes_index_bytes gauge\n"
      "aeetes_index_bytes -7\n"
      "# HELP aeetes_extract_latency_us end-to-end latency \"us\""
      "\\nsecond line\n"
      "# TYPE aeetes_extract_latency_us histogram\n";
  // Cumulative le series over the finite log2 buckets: zeros bucket, then
  // (1 << i) - 1 bounds up to 2^30 - 1; the overflow bucket becomes +Inf.
  uint64_t cumulative[31];
  for (int i = 0; i < 31; ++i) cumulative[i] = 0;
  auto bump = [&](int from) {
    for (int i = from; i < 31; ++i) ++cumulative[i];
  };
  bump(0);   // 0 -> bucket 0
  bump(1);   // 1 -> bucket 1
  bump(3);   // 5 -> bucket 3
  bump(21);  // 2^20 -> bucket 21
  for (int i = 0; i < 31; ++i) {
    const uint64_t bound = i == 0 ? 0 : (uint64_t{1} << i) - 1;
    expected += "aeetes_extract_latency_us_bucket{le=\"" +
                std::to_string(bound) + "\"} " +
                std::to_string(cumulative[i]) + "\n";
  }
  expected += "aeetes_extract_latency_us_bucket{le=\"+Inf\"} 4\n";
  expected += "aeetes_extract_latency_us_sum 1048582\n";
  expected += "aeetes_extract_latency_us_count 4\n";

  EXPECT_EQ(registry.ToPrometheus(), expected);
}

TEST(PrometheusTest, ExpositionIsDeterministicAcrossCalls) {
  MetricsRegistry registry;
  registry.RegisterCounter("b.second", "h");
  registry.RegisterCounter("a.first", "h");
  const std::string once = registry.ToPrometheus();
  EXPECT_EQ(once, registry.ToPrometheus());
  // Sorted by name, not registration order.
  EXPECT_LT(once.find("aeetes_a_first_total"),
            once.find("aeetes_b_second_total"));
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::CallInfo CallWithElapsed(double elapsed_ms) {
  FlightRecorder::CallInfo info;
  info.elapsed_ms = elapsed_ms;
  info.filter_ms = elapsed_ms * 0.25;
  info.verify_ms = elapsed_ms * 0.5;
  info.doc_tokens = 100;
  info.matches = 3;
  info.label = "lazy";
  return info;
}

TEST(FlightRecorderTest, ShouldSampleOneInN) {
  FlightRecorderOptions opts;
  opts.sample_every_n = 4;
  FlightRecorder recorder(opts);
  std::vector<bool> decisions;
  for (int i = 0; i < 8; ++i) decisions.push_back(recorder.ShouldSample());
  EXPECT_EQ(decisions, (std::vector<bool>{true, false, false, false, true,
                                          false, false, false}));

  FlightRecorderOptions off;
  off.sample_every_n = 0;
  FlightRecorder disabled(off);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(disabled.ShouldSample());
}

TEST(FlightRecorderTest, KeepsTheKSlowestInEvictionOrder) {
  FlightRecorderOptions opts;
  opts.sample_every_n = 0;
  opts.slow_threshold_ms = 0.0;  // retain everything (capacity permitting)
  opts.capacity = 3;
  FlightRecorder recorder(opts);
  // Arrival order deliberately shuffled relative to speed.
  for (double ms : {2.0, 6.0, 1.0, 4.0, 5.0, 3.0}) {
    recorder.RecordCall(CallWithElapsed(ms), nullptr);
  }
  EXPECT_EQ(recorder.total_calls(), 6u);
  EXPECT_EQ(recorder.retained(), 3u);
  const std::vector<FlightRecorder::Entry> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_DOUBLE_EQ(snapshot[0].info.elapsed_ms, 6.0);
  EXPECT_DOUBLE_EQ(snapshot[1].info.elapsed_ms, 5.0);
  EXPECT_DOUBLE_EQ(snapshot[2].info.elapsed_ms, 4.0);
}

TEST(FlightRecorderTest, TiesKeepTheEarliestArrival) {
  FlightRecorderOptions opts;
  opts.sample_every_n = 0;
  opts.slow_threshold_ms = 0.0;
  opts.capacity = 2;
  FlightRecorder recorder(opts);
  recorder.RecordCall(CallWithElapsed(5.0), nullptr);  // seq 0
  recorder.RecordCall(CallWithElapsed(5.0), nullptr);  // seq 1
  recorder.RecordCall(CallWithElapsed(5.0), nullptr);  // seq 2: loses ties
  const auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].seq, 0u);
  EXPECT_EQ(snapshot[1].seq, 1u);
}

TEST(FlightRecorderTest, FastCallsBelowThresholdAreNotRetained) {
  FlightRecorderOptions opts;
  opts.sample_every_n = 0;
  opts.slow_threshold_ms = 10.0;
  FlightRecorder recorder(opts);
  recorder.RecordCall(CallWithElapsed(1.0), nullptr);
  recorder.RecordCall(CallWithElapsed(50.0), nullptr);
  EXPECT_EQ(recorder.total_calls(), 2u);
  EXPECT_EQ(recorder.retained(), 1u);
  EXPECT_DOUBLE_EQ(recorder.Snapshot()[0].info.elapsed_ms, 50.0);
}

TEST(FlightRecorderTest, UnsampledSlowCallGetsSynthesizedSpans) {
  FlightRecorderOptions opts;
  opts.sample_every_n = 0;
  opts.slow_threshold_ms = 0.0;
  FlightRecorder recorder(opts);
  recorder.RecordCall(CallWithElapsed(8.0), nullptr);
  const auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_FALSE(snapshot[0].sampled);
  // extract root + filter and verify children, rebuilt from stage times.
  ASSERT_EQ(snapshot[0].spans.size(), 3u);
  EXPECT_EQ(snapshot[0].spans[0].name, "extract");
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"total_calls\":1"), std::string::npos);
  EXPECT_NE(json.find("extract"), std::string::npos);
  const std::string chrome = recorder.ToChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
}

// End-to-end: a real engine over the checked-in corpus with a zero slow
// threshold must capture full span trees for its slowest Extract calls.
// This is the release-build acceptance test for the flight recorder.
TEST(FlightRecorderTest, CapturesForcedSlowExtractEndToEnd) {
  const std::string dir = std::string(AEETES_DATA_DIR) + "/institutions";
  std::vector<std::string> entities, rules, documents;
  auto read = [](const std::string& path, std::vector<std::string>* out) {
    std::ifstream in(path);
    if (!in) return false;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) out->push_back(line);
    }
    return true;
  };
  if (!read(dir + "/entities.txt", &entities) ||
      !read(dir + "/rules.txt", &rules) ||
      !read(dir + "/documents.txt", &documents)) {
    GTEST_SKIP() << "data/institutions not found at " << dir;
  }
  auto built = Aeetes::BuildFromText(entities, rules, {});
  ASSERT_TRUE(built.ok()) << built.status();
  auto& aeetes = *built;

  FlightRecorderOptions opts;
  opts.sample_every_n = 1;     // sample every call
  opts.slow_threshold_ms = 0.0;  // ...and force-retain every call
  opts.capacity = 4;
  aeetes->EnableFlightRecorder(opts);

  size_t total_matches = 0;
  for (const std::string& text : documents) {
    const Document doc = aeetes->EncodeDocument(text);
    auto result = aeetes->Extract(doc, 0.8);
    ASSERT_TRUE(result.ok()) << result.status();
    total_matches += result->matches.size();
  }

  const FlightRecorder* recorder = aeetes->flight_recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->total_calls(), documents.size());
  EXPECT_EQ(recorder->sampled_calls(), documents.size());
  EXPECT_EQ(recorder->retained(),
            std::min(documents.size(), opts.capacity));

  const auto snapshot = recorder->Snapshot();
  ASSERT_FALSE(snapshot.empty());
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_GE(snapshot[i - 1].info.elapsed_ms, snapshot[i].info.elapsed_ms);
  }
  for (const FlightRecorder::Entry& entry : snapshot) {
    EXPECT_TRUE(entry.sampled);
    ASSERT_FALSE(entry.spans.empty());
    EXPECT_EQ(entry.spans[0].name, "extract");
    bool has_filter = false, has_verify = false;
    for (const TraceRecorder::Span& span : entry.spans) {
      if (span.name == "filter") has_filter = true;
      if (span.name == "verify") has_verify = true;
    }
    EXPECT_TRUE(has_filter) << "sampled call lost its filter span";
    EXPECT_TRUE(has_verify) << "sampled call lost its verify span";
    EXPECT_GE(entry.info.elapsed_ms, 0.0);
    EXPECT_GT(entry.info.doc_tokens, 0u);
  }
  // The Chrome export names one track per retained call.
  const std::string chrome = recorder->ToChromeTrace();
  EXPECT_NE(chrome.find("thread_name"), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"extract\""), std::string::npos);
  (void)total_matches;
}

}  // namespace
}  // namespace aeetes
