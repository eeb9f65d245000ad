#include "src/common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/logging.h"

namespace aeetes {

namespace jsonio {

void AppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  *out += buf;
}

namespace {

void AppendUint(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

}  // namespace

}  // namespace jsonio

Counter& MetricsRegistry::RegisterCounter(std::string name, std::string help) {
  MutexLock lock(mu_);
  AEETES_CHECK(help_.emplace(name, std::move(help)).second)
      << "duplicate metric registration: " << name;
  auto [it, inserted] =
      counters_.emplace(std::move(name), std::make_unique<Counter>());
  AEETES_CHECK(inserted);
  return *it->second;
}

Gauge& MetricsRegistry::RegisterGauge(std::string name, std::string help) {
  MutexLock lock(mu_);
  AEETES_CHECK(help_.emplace(name, std::move(help)).second)
      << "duplicate metric registration: " << name;
  auto [it, inserted] =
      gauges_.emplace(std::move(name), std::make_unique<Gauge>());
  AEETES_CHECK(inserted);
  return *it->second;
}

Histogram& MetricsRegistry::RegisterHistogram(std::string name,
                                              std::string help) {
  MutexLock lock(mu_);
  AEETES_CHECK(help_.emplace(name, std::move(help)).second)
      << "duplicate metric registration: " << name;
  auto [it, inserted] =
      histograms_.emplace(std::move(name), std::make_unique<Histogram>());
  AEETES_CHECK(inserted);
  return *it->second;
}

Counter& MetricsRegistry::GetOrRegisterCounter(std::string name,
                                               std::string help) {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  AEETES_CHECK(help_.emplace(name, std::move(help)).second)
      << "metric registered under another kind: " << name;
  auto [ins, inserted] =
      counters_.emplace(std::move(name), std::make_unique<Counter>());
  AEETES_CHECK(inserted);
  return *ins->second;
}

Gauge& MetricsRegistry::GetOrRegisterGauge(std::string name,
                                           std::string help) {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  AEETES_CHECK(help_.emplace(name, std::move(help)).second)
      << "metric registered under another kind: " << name;
  auto [ins, inserted] =
      gauges_.emplace(std::move(name), std::make_unique<Gauge>());
  AEETES_CHECK(inserted);
  return *ins->second;
}

Histogram& MetricsRegistry::GetOrRegisterHistogram(std::string name,
                                                   std::string help) {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  AEETES_CHECK(help_.emplace(name, std::move(help)).second)
      << "metric registered under another kind: " << name;
  auto [ins, inserted] =
      histograms_.emplace(std::move(name), std::make_unique<Histogram>());
  AEETES_CHECK(inserted);
  return *ins->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    jsonio::AppendString(&out, name);
    out.push_back(':');
    jsonio::AppendUint(&out, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    jsonio::AppendString(&out, name);
    out.push_back(':');
    jsonio::AppendInt(&out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    jsonio::AppendString(&out, name);
    out += ":{\"count\":";
    jsonio::AppendUint(&out, h->count());
    out += ",\"sum\":";
    jsonio::AppendUint(&out, h->sum());
    out += ",\"buckets\":[";
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (i > 0) out.push_back(',');
      jsonio::AppendUint(&out, h->bucket(i));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToText() const {
  MutexLock lock(mu_);
  size_t name_width = 0;
  for (const auto& [name, help] : help_) {
    name_width = std::max(name_width, name.size());
  }
  std::string out;
  auto append_row = [&](std::string_view kind, const std::string& name,
                        const std::string& value) {
    out += kind;
    out += "  ";
    out += name;
    out.append(name_width - name.size() + 2, ' ');
    out += value;
    const auto help = help_.find(name);
    if (help != help_.end() && !help->second.empty()) {
      out += "  # ";
      out += help->second;
    }
    out.push_back('\n');
  };
  for (const auto& [name, c] : counters_) {
    append_row("counter  ", name, std::to_string(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    append_row("gauge    ", name, std::to_string(g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    std::string value = "count=";
    value += std::to_string(h->count());
    value += " sum=";
    value += std::to_string(h->sum());
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t n = h->bucket(i);
      if (n == 0) continue;
      const uint64_t lo = i == 0 ? 0 : (uint64_t{1} << (i - 1));
      value += " [";
      value += std::to_string(lo);
      if (i == Histogram::kNumBuckets - 1) {
        value += ",inf)=";
      } else {
        value += ",";
        value += std::to_string(Histogram::BucketUpperBound(i));
        value += "]=";
      }
      value += std::to_string(n);
    }
    append_row("histogram", name, value);
  }
  return out;
}

namespace {

/// `extract.calls` -> `aeetes_extract_calls`: the registry's dot-separated
/// names are not valid Prometheus identifiers, so dots (and any other
/// character outside [a-zA-Z0-9_:]) become underscores.
std::string PromName(const std::string& name) {
  std::string out = "aeetes_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// HELP text escaping per the exposition format: backslash and newline.
void AppendPromHelp(std::string* out, const std::string& help) {
  for (const char c : help) {
    if (c == '\\') {
      *out += "\\\\";
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  auto header = [&](const std::string& raw_name, const std::string& prom_name,
                    std::string_view type) {
    const auto help = help_.find(raw_name);
    out += "# HELP ";
    out += prom_name;
    out.push_back(' ');
    if (help != help_.end()) AppendPromHelp(&out, help->second);
    out += "\n# TYPE ";
    out += prom_name;
    out.push_back(' ');
    out += type;
    out.push_back('\n');
  };
  for (const auto& [name, c] : counters_) {
    const std::string prom = PromName(name) + "_total";
    header(name, prom, "counter");
    out += prom;
    out.push_back(' ');
    jsonio::AppendUint(&out, c->value());
    out.push_back('\n');
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = PromName(name);
    header(name, prom, "gauge");
    out += prom;
    out.push_back(' ');
    jsonio::AppendInt(&out, g->value());
    out.push_back('\n');
  }
  for (const auto& [name, h] : histograms_) {
    const std::string prom = PromName(name);
    header(name, prom, "histogram");
    // Prometheus buckets are cumulative counts of observations <= le; the
    // registry's log2 buckets are disjoint, so prefix-sum while emitting.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      cumulative += h->bucket(i);
      out += prom;
      out += "_bucket{le=\"";
      if (i == Histogram::kNumBuckets - 1) {
        out += "+Inf";
      } else {
        out += std::to_string(Histogram::BucketUpperBound(i));
      }
      out += "\"} ";
      jsonio::AppendUint(&out, cumulative);
      out.push_back('\n');
    }
    out += prom;
    out += "_sum ";
    jsonio::AppendUint(&out, h->sum());
    out.push_back('\n');
    out += prom;
    out += "_count ";
    jsonio::AppendUint(&out, h->count());
    out.push_back('\n');
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

size_t TraceRecorder::Begin(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? kNoSpan : open_.back();
  span.start_ms = sw_.ElapsedMillis();
  spans_.push_back(std::move(span));
  const size_t id = spans_.size() - 1;
  open_.push_back(id);
  return id;
}

void TraceRecorder::End() {
  AEETES_CHECK(!open_.empty()) << "TraceRecorder::End without open span";
  Span& span = spans_[open_.back()];
  span.elapsed_ms = sw_.ElapsedMillis() - span.start_ms;
  open_.pop_back();
}

void TraceRecorder::AddStat(size_t id, std::string_view name,
                            uint64_t value) {
  AEETES_CHECK_LT(id, spans_.size()) << "AddStat on unknown span";
  spans_[id].stats.emplace_back(std::string(name), value);
}

const TraceRecorder::Span* TraceRecorder::Find(std::string_view name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

void AppendSpanJson(const std::vector<TraceRecorder::Span>& spans, size_t id,
                    std::string* out) {
  const TraceRecorder::Span& s = spans[id];
  *out += "{\"name\":";
  jsonio::AppendString(out, s.name);
  *out += ",\"start_ms\":";
  jsonio::AppendDouble(out, s.start_ms);
  *out += ",\"elapsed_ms\":";
  jsonio::AppendDouble(out, s.elapsed_ms);
  *out += ",\"stats\":{";
  for (size_t i = 0; i < s.stats.size(); ++i) {
    if (i > 0) out->push_back(',');
    jsonio::AppendString(out, s.stats[i].first);
    out->push_back(':');
    *out += std::to_string(s.stats[i].second);
  }
  *out += "},\"children\":[";
  bool first = true;
  for (size_t c = id + 1; c < spans.size(); ++c) {
    if (spans[c].parent != id) continue;
    if (!first) out->push_back(',');
    first = false;
    AppendSpanJson(spans, c, out);
  }
  *out += "]}";
}

}  // namespace

std::string TraceRecorder::SpansToJson(const std::vector<Span>& spans) {
  std::string out = "{\"spans\":[";
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoSpan) continue;
    if (!first) out.push_back(',');
    first = false;
    AppendSpanJson(spans, i, &out);
  }
  out += "]}";
  return out;
}

std::string TraceRecorder::ToJson() const { return SpansToJson(spans_); }

std::string TraceRecorder::ToText() const {
  std::string out;
  // Depth of each span = depth of parent + 1; spans_ is in Begin order, so
  // parents always precede children.
  std::vector<size_t> depth(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != kNoSpan) depth[i] = depth[s.parent] + 1;
    out.append(2 * depth[i], ' ');
    out += s.name;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "  %.3f ms", s.elapsed_ms);
    out += buf;
    for (const auto& [stat, value] : s.stats) {
      out += "  ";
      out += stat;
      out.push_back('=');
      out += std::to_string(value);
    }
    out.push_back('\n');
  }
  return out;
}

void TraceRecorder::Clear() {
  spans_.clear();
  open_.clear();
  sw_.Restart();
}

}  // namespace aeetes
