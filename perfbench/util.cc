#include "perfbench/util.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "src/common/metrics.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

unsigned Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

double CalibrationMs() {
  // A dependent multiply-xorshift chain: pure ALU work, no memory traffic,
  // so it tracks the core's speed and nothing else.
  const double start = Now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < 60'000'000; ++i) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
    x += i;
  }
  const double ms = (Now() - start) * 1e3;
  // Keep the chain observable so it is not optimized away.
  if (x == 42) std::fprintf(stderr, "calibration sentinel\n");
  return ms;
}

double MemoryCalibrationMs() {
  // One random cycle over 8M slots (Sattolo's shuffle), so every load
  // depends on the previous one and misses the caches. Small enough to
  // stay below every workload's own peak memory.
  constexpr uint32_t kSlots = 1U << 23;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  std::mt19937 rng(12345);
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    const uint32_t j = static_cast<uint32_t>(rng() % i);
    std::swap(next[i], next[j]);
  }
  const double start = Now();
  uint32_t at = 0;
  for (int step = 0; step < 2'000'000; ++step) at = next[at];
  const double ms = (Now() - start) * 1e3;
  if (at == kSlots) std::fprintf(stderr, "calibration sentinel\n");
  return ms;
}

int64_t Tracer::Begin(const std::string& name, uint64_t request) {
  const int64_t parent = open_.empty() ? kNoParent : open_.back();
  const int64_t id = Add(name, Now(), 0.0, parent, request);
  open_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int64_t Tracer::Add(const std::string& name, double start, double end,
                    int64_t parent, uint64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

std::map<std::string, std::pair<uint64_t, double>> Tracer::SelfTimes()
    const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, std::pair<uint64_t, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> cover;
    for (size_t c : children[i]) {
      const double b = std::max(s.start, spans_[c].start);
      const double e = std::min(s.end, spans_[c].end);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double cur_b = 0.0;
    double cur_e = -1.0;
    for (const auto& [b, e] : cover) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    auto& slot = out[s.name];
    slot.first += 1;
    slot.second += std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const double base = spans_.empty() ? 0.0 : spans_.front().start;
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    aeetes::jsonio::AppendString(&name, s.name);
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":" << name
        << ",\"start_us\":" << JsonNumber((s.start - base) * 1e6)
        << ",\"end_us\":" << JsonNumber((s.end - base) * 1e6)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, JsonNumber(value));
}

void Report::Info(const std::string& key, const std::string& value) {
  std::string quoted;
  aeetes::jsonio::AppendString(&quoted, value);
  info_.emplace_back(key, quoted);
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  failures_.push_back(why);
}

int Report::Finish(uint64_t attempted, uint64_t failed) {
  for (const Entry& m : metrics_) {
    std::printf("%-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string report = "{\"report\":{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i != 0) report += ',';
    aeetes::jsonio::AppendString(&report, info_[i].first);
    report += ':';
    report += info_[i].second;
  }
  report += ",\"check_failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) report += ',';
    aeetes::jsonio::AppendString(&report, failures_[i]);
  }
  report += "]}}";
  std::printf("%s\n", report.c_str());

  const bool correct = failures_.empty() && failed == 0 && attempted > 0;
  std::string result = "{\"correct\":";
  result += correct ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(attempted);
  result += ",\"failed\":" + std::to_string(failed);
  result += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) result += ',';
    aeetes::jsonio::AppendString(&result, metrics_[i].name);
    result += ":{\"value\":" + JsonNumber(metrics_[i].value) + ",\"unit\":";
    aeetes::jsonio::AppendString(&result, metrics_[i].unit);
    result += '}';
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
