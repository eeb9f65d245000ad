// The benchmark's workloads and the pieces both the batch and the served
// runs share: corpus generation from the command-line seed, the traced
// per-document pass that calls each pipeline layer directly, and the
// canonical per-layer metric list.
#ifndef AEETES_PERFBENCH_WORKLOADS_H_
#define AEETES_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/util.h"
#include "src/core/aeetes.h"
#include "src/datagen/generator.h"

namespace perfbench {

enum class Mode { kBatch, kServe, kLive };

struct WorkloadSpec {
  const char* name;
  Mode mode;
  const char* profile;  // "usjob" | "dbworld" | "pubmed"
  /// Dictionary scale: entities x scale, vocabularies x scale^0.25 (the
  /// efficiency-profile shape of bench/bench_common.cc).
  double dict_scale;
  size_t documents;
  double tau;
  /// Served workloads: offered load of the open-loop phase.
  double open_loop_rps;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The workload's corpus: its fixed dictionary and the documents `seed`
/// draws. Quick mode shrinks the dictionary and the document count to
/// smoke-test size.
aeetes::SyntheticDataset Generate(const WorkloadSpec& spec, uint64_t seed,
                                  bool quick);

/// Per-layer totals of one traced pass over a set of documents.
struct LayerTotals {
  size_t docs = 0;
  double encode_s = 0.0;
  double filter_s = 0.0;
  double verify_s = 0.0;
  uint64_t tokens = 0;
  uint64_t windows = 0;
  uint64_t entries = 0;
  uint64_t candidates = 0;
  uint64_t pairs = 0;
  uint64_t matches = 0;

  LayerTotals& operator+=(const LayerTotals& o);
};

/// Encodes and extracts one text by calling the layers directly —
/// EncodeDocument, GenerateCandidatesInto, VerifyCandidatesInto — with a
/// span around each, exactly as Aeetes::ExtractInto runs them for an
/// engine without a live overlay. Adds the layer costs to `totals` and
/// returns the number of matches, for comparison with ExtractInto.
size_t TracedDoc(aeetes::Aeetes& engine, const std::string& text, double tau,
                 Tracer& tracer, uint64_t request,
                 aeetes::ExtractScratch& scratch, LayerTotals& totals);

/// Adds every per-layer metric, in a fixed order, to the report; a layer
/// the workload does not run reads 0.
void EmitPerLayer(Report& report, const std::map<std::string, double>& values);

/// Adds the layer metrics of a traced pass into `values`.
void LayerValues(const LayerTotals& t, std::map<std::string, double>& values);

/// Adds the offline build's own gauges (derivation and index time,
/// derived forms) of `engine` into `values`.
void BuildValues(const aeetes::Aeetes& engine,
                 std::map<std::string, double>& values);

/// Prints the self-time table (per span name: spans, total, mean) to
/// stdout.
void PrintSelfTimes(const Tracer& tracer);

}  // namespace perfbench

#endif  // AEETES_PERFBENCH_WORKLOADS_H_
