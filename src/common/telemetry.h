#ifndef AEETES_COMMON_TELEMETRY_H_
#define AEETES_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/perf_counters.h"
#include "src/common/thread_annotations.h"

namespace aeetes {

/// Always-on sampled tracing on top of the point-in-time MetricsRegistry
/// (DESIGN.md §13): 1-in-N Extract calls keep their full span tree, any
/// call over a latency threshold is retained unconditionally, and a
/// bounded ring keeps the K slowest.

struct FlightRecorderOptions {
  /// Keep the full span tree of every N-th call; 0 disables sampling
  /// (slow calls are still retained).
  uint32_t sample_every_n = 64;
  /// Calls at or above this wall time are retained unconditionally, with
  /// a synthesized filter/verify span tree when the call was not sampled.
  double slow_threshold_ms = 50.0;
  /// Bounded ring size: the K slowest retained calls.
  size_t capacity = 16;
};

/// Always-on capture of the slowest (and a sample of all) Extract calls.
/// The unsampled fast path is one relaxed fetch_add; only calls that are
/// sampled or over the slow threshold take the mutex. Retention is
/// "K slowest": once full, a new call must beat the fastest retained entry
/// or it is dropped, and the fastest entry is what gets evicted.
class FlightRecorder {
 public:
  /// Everything recorded about one call besides its span tree. Perf
  /// counter fields are zero when hardware counters are unavailable.
  struct CallInfo {
    double elapsed_ms = 0.0;
    double filter_ms = 0.0;
    double verify_ms = 0.0;
    uint64_t doc_tokens = 0;
    uint64_t matches = 0;
    const char* label = "";  // static string: strategy name etc.
    PerfSample perf;         // delta over the call (valid only if sampled)
  };

  struct Entry {
    uint64_t seq = 0;  // arrival order among retained-eligible calls
    bool sampled = false;
    CallInfo info;
    std::vector<TraceRecorder::Span> spans;
  };

  explicit FlightRecorder(FlightRecorderOptions options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Lock-free sampling decision; true for call 1, N+1, 2N+1, ... Callers
  /// that get true record the call into a TraceRecorder and pass it to
  /// RecordCall.
  bool ShouldSample();

  /// Reports one finished call. `trace` carries the span tree of sampled
  /// calls and is copied if the call is retained; null for unsampled
  /// calls, whose spans are synthesized from filter/verify times when the
  /// slow threshold retains them.
  void RecordCall(const CallInfo& info, const TraceRecorder* trace)
      AEETES_EXCLUDES(mu_);

  /// Retained entries, slowest first (ties: earliest seq first).
  [[nodiscard]] std::vector<Entry> Snapshot() const AEETES_EXCLUDES(mu_);

  /// {"total_calls":..,"sampled_calls":..,"retained":[{...,"trace":{...}}]}
  [[nodiscard]] std::string ToJson() const AEETES_EXCLUDES(mu_);

  /// Chrome trace_event JSON ({"traceEvents":[...]}, complete "X" events,
  /// microsecond timestamps) loadable in Perfetto / chrome://tracing; each
  /// retained call renders as its own track (tid = seq).
  [[nodiscard]] std::string ToChromeTrace() const AEETES_EXCLUDES(mu_);

  [[nodiscard]] uint64_t total_calls() const {
    return total_calls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t sampled_calls() const {
    return sampled_calls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t retained() const AEETES_EXCLUDES(mu_);
  [[nodiscard]] const FlightRecorderOptions& options() const {
    return options_;
  }

 private:
  FlightRecorderOptions options_;
  std::atomic<uint64_t> sample_clock_{0};
  std::atomic<uint64_t> total_calls_{0};
  std::atomic<uint64_t> sampled_calls_{0};
  mutable Mutex mu_;
  /// Sorted ascending by elapsed_ms (front = eviction candidate).
  std::vector<Entry> ring_ AEETES_GUARDED_BY(mu_);
  uint64_t next_seq_ AEETES_GUARDED_BY(mu_) = 0;
};

}  // namespace aeetes

#endif  // AEETES_COMMON_TELEMETRY_H_
