#ifndef AEETES_COMMON_METRICS_H_
#define AEETES_COMMON_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_annotations.h"

namespace aeetes {

/// Observability primitives for the extraction pipeline (the accounting
/// behind the paper's Figures 9-12: where does time go, how many posting
/// entries are touched, how many candidates survive each filter).
///
/// Design constraints, matching the rest of the library:
///  - no exceptions, no allocation on the update path;
///  - updates are single relaxed atomic ops, so concurrent Extract calls
///    on one instance stay race-free (future multi-threaded PRs inherit
///    this for free — proven under the tsan preset);
///  - registration is the only locking operation and happens at setup
///    time; hot paths hold plain `Counter&` references.

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (sizes, build costs).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency/size distribution with log2 boundaries: bucket 0
/// counts exact zeros, bucket i (i >= 1) counts values in
/// [2^(i-1), 2^i - 1], and the last bucket absorbs everything at or above
/// 2^(kNumBuckets-2) (the overflow bucket). 32 buckets cover ~35 minutes
/// at microsecond resolution. All cells are relaxed atomics.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 32;

  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Bucket a value lands in: 0 for 0, otherwise min(bit_width, last).
  static size_t BucketIndex(uint64_t v) {
    const size_t width = static_cast<size_t>(std::bit_width(v));
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  /// Inclusive upper bound of bucket `i`; the overflow bucket is unbounded
  /// and reports uint64_t max.
  static uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= kNumBuckets - 1) return std::numeric_limits<uint64_t>::max();
    return (uint64_t{1} << i) - 1;
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Named registry of metrics with machine- and human-readable export.
/// Names are dot-separated `<stage>.<what>` (see DESIGN.md §Observability);
/// registering the same name twice — in any metric kind — is a programming
/// error and CHECK-aborts. Metric references remain valid for the life of
/// the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& RegisterCounter(std::string name, std::string help)
      AEETES_EXCLUDES(mu_);
  Gauge& RegisterGauge(std::string name, std::string help)
      AEETES_EXCLUDES(mu_);
  Histogram& RegisterHistogram(std::string name, std::string help)
      AEETES_EXCLUDES(mu_);

  /// Idempotent registration: returns the existing metric when the name is
  /// already registered with the same kind (help is kept from the first
  /// registration), CHECK-aborts when it exists as another kind. For
  /// publishers that re-emit after every run (pool gauges, snapshot stats)
  /// without tracking whether this is the first run.
  Counter& GetOrRegisterCounter(std::string name, std::string help)
      AEETES_EXCLUDES(mu_);
  Gauge& GetOrRegisterGauge(std::string name, std::string help)
      AEETES_EXCLUDES(mu_);
  Histogram& GetOrRegisterHistogram(std::string name, std::string help)
      AEETES_EXCLUDES(mu_);

  /// Lookup by exact name; nullptr when absent (or of another kind).
  const Counter* FindCounter(std::string_view name) const AEETES_EXCLUDES(mu_);
  const Gauge* FindGauge(std::string_view name) const AEETES_EXCLUDES(mu_);
  [[nodiscard]] const Histogram* FindHistogram(std::string_view name) const
      AEETES_EXCLUDES(mu_);

  /// Compact single-line JSON snapshot:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"n":{"count":c,"sum":s,"buckets":[32 ints]}}}
  /// Keys are sorted, so output is deterministic for a fixed state.
  std::string ToJson() const AEETES_EXCLUDES(mu_);

  /// Aligned human-readable table; histograms list non-zero buckets as
  /// [lo, hi]=count ranges.
  std::string ToText() const AEETES_EXCLUDES(mu_);

  /// Prometheus text exposition format (v0.0.4). Naming rules (DESIGN.md
  /// §13): every metric is prefixed `aeetes_`, dots become underscores,
  /// counters get the conventional `_total` suffix. Histograms emit
  /// cumulative `_bucket{le="..."}` series derived from the log2 bucket
  /// upper bounds (0, 1, 3, 7, ..., +Inf) plus `_sum` and `_count`.
  /// Iteration order is the sorted registry order, so output is
  /// deterministic for a fixed state (golden-tested).
  std::string ToPrometheus() const AEETES_EXCLUDES(mu_);

  /// Zeroes every value while keeping registrations (per-run deltas).
  void ResetAll() AEETES_EXCLUDES(mu_);

 private:
  /// Guards the registration maps only. The metric cells themselves are
  /// lock-free (relaxed atomics) and returned by reference, so update
  /// paths never touch this mutex — the split the class comment promises,
  /// now compiler-checked: registration/lookup/export lock, Add/Record
  /// cannot (they see only Counter&/Histogram&).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      AEETES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      AEETES_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      AEETES_GUARDED_BY(mu_);
  std::map<std::string, std::string, std::less<>> help_  // all kinds
      AEETES_GUARDED_BY(mu_);
};

/// RAII wall-time span: on destruction records elapsed microseconds into
/// `hist` (if any) and writes elapsed milliseconds to `out_ms` (if any).
/// Replaces the hand-rolled Stopwatch start/stop pairs that used to be
/// duplicated across Extract and every benchmark.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist, double* out_ms = nullptr)
      : hist_(hist), out_ms_(out_ms) {}
  ~ScopedTimer() {
    const double ms = sw_.ElapsedMillis();
    if (hist_ != nullptr) {
      hist_->Record(static_cast<uint64_t>(sw_.ElapsedMicros()));
    }
    if (out_ms_ != nullptr) *out_ms_ = ms;
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  [[nodiscard]] double ElapsedMillis() const { return sw_.ElapsedMillis(); }

 private:
  Stopwatch sw_;
  Histogram* hist_;
  double* out_ms_;
};

/// Captures the per-call stage tree of one (or several) Extract calls:
/// each span has a name, wall time, attached stat counters, and children.
/// Spans must nest (LIFO) — use TraceScope. Not thread-safe; intended as a
/// per-call or per-thread object, unlike the registry.
class TraceRecorder {
 public:
  static constexpr size_t kNoSpan = std::numeric_limits<size_t>::max();

  struct Span {
    std::string name;
    size_t parent = kNoSpan;
    double start_ms = 0.0;    // offset from recorder construction
    double elapsed_ms = 0.0;  // filled by End()
    std::vector<std::pair<std::string, uint64_t>> stats;
  };

  /// Opens a span nested under the innermost open span; returns its id.
  size_t Begin(std::string_view name);
  /// Closes the innermost open span, recording its wall time.
  void End();
  /// Attaches a named stat counter to span `id` (must not be finished
  /// long ago — any recorded span id is accepted).
  void AddStat(size_t id, std::string_view name, uint64_t value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// First span with this name in recording order; nullptr when absent.
  [[nodiscard]] const Span* Find(std::string_view name) const;

  /// {"spans":[{"name":..,"elapsed_ms":..,"stats":{...},"children":[..]}]}
  [[nodiscard]] std::string ToJson() const;
  /// Indented tree with times and stats, one span per line.
  [[nodiscard]] std::string ToText() const;

  /// Same encoding as ToJson over a detached span vector — the flight
  /// recorder stores copies of span trees after the recorder that produced
  /// them has been recycled.
  static std::string SpansToJson(const std::vector<Span>& spans);

  void Clear();

 private:
  Stopwatch sw_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // stack of span ids
};

/// RAII handle opening a TraceRecorder span; safe to construct with a null
/// recorder (all operations become no-ops), so the hot path stays free of
/// branches at call sites that only sometimes trace.
class TraceScope {
 public:
  TraceScope(TraceRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name)
                                : TraceRecorder::kNoSpan) {}
  ~TraceScope() {
    if (recorder_ != nullptr) recorder_->End();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void AddStat(std::string_view name, uint64_t value) {
    if (recorder_ != nullptr) recorder_->AddStat(id_, name, value);
  }

 private:
  TraceRecorder* recorder_;
  size_t id_;
};

namespace jsonio {

/// Appends `s` as a quoted, escaped JSON string.
void AppendString(std::string* out, std::string_view s);
/// Appends a double with enough precision to round-trip, using a fixed
/// format so exports are locale-independent.
void AppendDouble(std::string* out, double v);

}  // namespace jsonio

}  // namespace aeetes

#endif  // AEETES_COMMON_METRICS_H_
