// Shared pieces of the performance benchmark: command-line arguments,
// timing and percentile helpers, the host-drift calibration loop, the
// in-memory span tracer and the result printer.
#ifndef AEETES_PERFBENCH_UTIL_H_
#define AEETES_PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short run: checks the plumbing, not the numbers.
  bool quick = false;
  std::string server_bin;  // aeetes_server built beside this binary
  std::string workdir;     // scratch space inside the checkout
};

/// Seconds on the steady clock (arbitrary epoch).
double Now();

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Online CPUs.
unsigned Nproc();

/// Wall time of a fixed integer loop (ms). Printed before and after every
/// run beside the metrics so host speed drift can be told apart from a
/// code change; never gates anything.
double CalibrationMs();

/// Wall time of a fixed dependent pointer chase through 32 MiB (ms): the
/// memory-latency counterpart of CalibrationMs. Memory-bound workloads
/// drift with it more than with the integer loop.
double MemoryCalibrationMs();

/// Spans recorded by the benchmark's own code around calls into each
/// layer. Spans live in memory and are written out once, at the end.
class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = kNoParent;
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested under the innermost open one; returns its id.
  int64_t Begin(const std::string& name, uint64_t request);
  void End(int64_t id);
  /// Records an already-finished span (asynchronous client phases).
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent, uint64_t request);

  /// Self time per span name: its duration minus the part covered by its
  /// children. Returns name -> (spans, total self seconds).
  [[nodiscard]] std::map<std::string, std::pair<uint64_t, double>> SelfTimes()
      const;

  /// Writes every span as a JSON array; false when the file is unwritable.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, request) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Collects metrics and diagnostics, then prints them: one human line per
/// metric, one JSON "report" line, and last the one-line result object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A diagnostic carried in the report line (never part of the result).
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);
  /// Marks an output check as failed; the run then exits non-zero.
  void Fail(const std::string& why);

  /// Prints everything; returns the process exit code.
  int Finish(uint64_t attempted, uint64_t failed);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // key, JSON value
  std::vector<std::string> failures_;
};

/// Formats a double for JSON with all its significant digits.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // AEETES_PERFBENCH_UTIL_H_
