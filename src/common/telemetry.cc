#include "src/common/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace aeetes {

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
}

bool FlightRecorder::ShouldSample() {
  if (options_.sample_every_n == 0) return false;
  const uint64_t n = sample_clock_.fetch_add(1, std::memory_order_relaxed);
  return n % options_.sample_every_n == 0;
}

namespace {

/// Span tree stand-in for a slow call that was not sampled: the stage
/// times recorded in the summary are enough to reconstruct the coarse
/// extract -> {filter, verify} shape Perfetto renders.
void SynthesizeSpans(const FlightRecorder::CallInfo& info,
                     std::vector<TraceRecorder::Span>* spans) {
  TraceRecorder::Span extract;
  extract.name = "extract";
  extract.parent = TraceRecorder::kNoSpan;
  extract.start_ms = 0.0;
  extract.elapsed_ms = info.elapsed_ms;
  extract.stats.emplace_back("doc_tokens", info.doc_tokens);
  extract.stats.emplace_back("matches", info.matches);
  spans->push_back(std::move(extract));
  TraceRecorder::Span filter;
  filter.name = "filter";
  filter.parent = 0;
  filter.start_ms = 0.0;
  filter.elapsed_ms = info.filter_ms;
  spans->push_back(std::move(filter));
  TraceRecorder::Span verify;
  verify.name = "verify";
  verify.parent = 0;
  verify.start_ms = info.filter_ms;  // stages run back to back
  verify.elapsed_ms = info.verify_ms;
  spans->push_back(std::move(verify));
}

/// Ascending by elapsed time so ring_.front() is the eviction candidate;
/// equal times order by descending seq so the reversed snapshot lists the
/// earliest capture first.
bool RingLess(const FlightRecorder::Entry& a, const FlightRecorder::Entry& b) {
  if (a.info.elapsed_ms != b.info.elapsed_ms) {
    return a.info.elapsed_ms < b.info.elapsed_ms;
  }
  return a.seq > b.seq;
}

}  // namespace

void FlightRecorder::RecordCall(const CallInfo& info,
                                const TraceRecorder* trace) {
  total_calls_.fetch_add(1, std::memory_order_relaxed);
  const bool sampled = trace != nullptr;
  if (sampled) sampled_calls_.fetch_add(1, std::memory_order_relaxed);
  const bool slow = info.elapsed_ms >= options_.slow_threshold_ms;
  if (!sampled && !slow) return;  // fast path: one relaxed add, no lock
  MutexLock lock(mu_);
  const uint64_t seq = next_seq_++;
  if (ring_.size() == options_.capacity &&
      info.elapsed_ms <= ring_.front().info.elapsed_ms) {
    return;  // full and not slower than the current floor
  }
  Entry entry;
  entry.seq = seq;
  entry.sampled = sampled;
  entry.info = info;
  if (sampled) {
    entry.spans = trace->spans();
  } else {
    SynthesizeSpans(info, &entry.spans);
  }
  const auto pos =
      std::upper_bound(ring_.begin(), ring_.end(), entry, RingLess);
  ring_.insert(pos, std::move(entry));
  if (ring_.size() > options_.capacity) ring_.erase(ring_.begin());
}

std::vector<FlightRecorder::Entry> FlightRecorder::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<Entry> out(ring_.rbegin(), ring_.rend());  // slowest first
  return out;
}

size_t FlightRecorder::retained() const {
  MutexLock lock(mu_);
  return ring_.size();
}

namespace {

void AppendCallInfoJson(std::string* out, const FlightRecorder::Entry& e) {
  *out += "{\"seq\":";
  *out += std::to_string(e.seq);
  *out += ",\"sampled\":";
  *out += e.sampled ? "true" : "false";
  *out += ",\"label\":";
  jsonio::AppendString(out, e.info.label);
  *out += ",\"elapsed_ms\":";
  jsonio::AppendDouble(out, e.info.elapsed_ms);
  *out += ",\"filter_ms\":";
  jsonio::AppendDouble(out, e.info.filter_ms);
  *out += ",\"verify_ms\":";
  jsonio::AppendDouble(out, e.info.verify_ms);
  *out += ",\"doc_tokens\":";
  *out += std::to_string(e.info.doc_tokens);
  *out += ",\"matches\":";
  *out += std::to_string(e.info.matches);
  *out += ",\"perf\":{\"valid\":";
  *out += e.info.perf.valid ? "true" : "false";
  *out += ",\"cycles\":";
  *out += std::to_string(e.info.perf.cycles);
  *out += ",\"instructions\":";
  *out += std::to_string(e.info.perf.instructions);
  *out += ",\"cache_misses\":";
  *out += std::to_string(e.info.perf.cache_misses);
  *out += ",\"branch_misses\":";
  *out += std::to_string(e.info.perf.branch_misses);
  *out += "}";
}

}  // namespace

std::string FlightRecorder::ToJson() const {
  const std::vector<Entry> entries = Snapshot();
  std::string out = "{\"total_calls\":";
  out += std::to_string(total_calls());
  out += ",\"sampled_calls\":";
  out += std::to_string(sampled_calls());
  out += ",\"retained\":[";
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) out.push_back(',');
    first = false;
    AppendCallInfoJson(&out, e);
    out += ",\"trace\":";
    out += TraceRecorder::SpansToJson(e.spans);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::ToChromeTrace() const {
  const std::vector<Entry> entries = Snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Entry& e : entries) {
    // One track per retained call, labeled with its summary.
    if (!first) out.push_back(',');
    first = false;
    char label[160];
    std::snprintf(label, sizeof(label),
                  "extract #%llu %.3f ms (%s%s)",
                  static_cast<unsigned long long>(e.seq), e.info.elapsed_ms,
                  e.sampled ? "sampled" : "slow",
                  e.info.perf.valid ? ", perf" : "");
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(e.seq);
    out += ",\"args\":{\"name\":";
    jsonio::AppendString(&out, label);
    out += "}}";
    for (const TraceRecorder::Span& s : e.spans) {
      out += ",{\"name\":";
      jsonio::AppendString(&out, s.name);
      out += ",\"ph\":\"X\",\"pid\":0,\"tid\":";
      out += std::to_string(e.seq);
      out += ",\"ts\":";
      jsonio::AppendDouble(&out, s.start_ms * 1000.0);
      out += ",\"dur\":";
      jsonio::AppendDouble(&out, s.elapsed_ms * 1000.0);
      out += ",\"args\":{";
      bool first_stat = true;
      for (const auto& [stat, value] : s.stats) {
        if (!first_stat) out.push_back(',');
        first_stat = false;
        jsonio::AppendString(&out, stat);
        out.push_back(':');
        out += std::to_string(value);
      }
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace aeetes
