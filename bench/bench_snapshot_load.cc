// Snapshot-load benchmark (DESIGN.md §11): cold offline Build vs the v2
// engine image (mmap + wire, zero-copy). Reports wall time and
// resident-set growth per path, plus the load speedup over a cold build.
//
// Dataset: data/institutions when present (the adoption-path corpus), else
// a synthetic PubMed-like profile so the benchmark always runs. Scale the
// synthetic fallback with AEETES_BENCH_SCALE.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/aeetes.h"
#include "src/io/snapshot.h"

#ifndef AEETES_DATA_DIR
#define AEETES_DATA_DIR "data"
#endif

namespace aeetes {
namespace bench {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// VmRSS / VmHWM in KiB from /proc/self/status (0 when unavailable).
uint64_t ProcStatusKib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      uint64_t kib = 0;
      std::sscanf(line.c_str() + std::string(key).size(), " %llu",
                  reinterpret_cast<unsigned long long*>(&kib));
      return kib;
    }
  }
  return 0;
}

struct Corpus {
  std::string name;
  std::vector<std::string> entities;
  std::vector<std::string> rules;
};

/// The adoption-path corpus (data/institutions, when present) plus a
/// dictionary-scale synthetic corpus. The institutions file is tiny (tens
/// of entities), so its cold build is already sub-millisecond and the
/// mmap path is bounded below by syscall cost; the synthetic corpus is
/// where the paper-scale build-vs-load gap shows.
std::vector<Corpus> LoadCorpora() {
  std::vector<Corpus> corpora;
  Corpus institutions;
  const std::string dir = std::string(AEETES_DATA_DIR) + "/institutions";
  institutions.entities = ReadLines(dir + "/entities.txt");
  institutions.rules = ReadLines(dir + "/rules.txt");
  if (!institutions.entities.empty()) {
    institutions.name = "institutions";
    corpora.push_back(std::move(institutions));
  }
  DatasetProfile profile = PubMedLikeProfile();
  profile.num_entities =
      static_cast<size_t>(2000 * EnvDouble("AEETES_BENCH_SCALE", 1.0));
  profile.num_documents = 1;
  const SyntheticDataset ds = GenerateDataset(profile);
  Corpus synthetic;
  synthetic.name = "synthetic-pubmed";
  synthetic.entities = ds.entity_texts;
  synthetic.rules = ds.rule_lines;
  corpora.push_back(std::move(synthetic));
  return corpora;
}

void RunCorpus(const Corpus& corpus, BenchReporter& reporter) {
  const std::string path = "/tmp/aeetes_bench_v2.snap";

  // Cold build (the baseline the snapshot load is trying to beat).
  std::unique_ptr<Aeetes> built;
  const double build_ms = TimedMillis([&] {
    auto r = Aeetes::BuildFromText(corpus.entities, corpus.rules);
    AEETES_CHECK(r.ok()) << r.status();
    built = std::move(*r);
  });
  AEETES_CHECK(SaveSnapshot(*built, path).ok());

  uint64_t bytes = 0;
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    bytes = static_cast<uint64_t>(f.tellg());
  }
  const uint64_t rss_before = ProcStatusKib("VmRSS:");
  std::unique_ptr<Aeetes> loaded;
  const double load_ms = TimedMillis([&] {
    auto r = LoadSnapshot(path);
    AEETES_CHECK(r.ok()) << r.status();
    loaded = std::move(*r);
  });
  const uint64_t rss_after = ProcStatusKib("VmRSS:");
  const uint64_t rss_delta_kib =
      rss_after > rss_before ? rss_after - rss_before : 0;
  const double speedup = load_ms > 0 ? build_ms / load_ms : 0.0;

  std::printf("dataset=%s entities=%zu rules=%zu peak_rss_kib=%llu\n",
              corpus.name.c_str(), corpus.entities.size(),
              corpus.rules.size(),
              static_cast<unsigned long long>(ProcStatusKib("VmHWM:")));
  std::printf("%-12s %12s %12s %12s\n", "path", "wall_ms", "rss_kib",
              "bytes");
  std::printf("%-12s %12.3f %12s %12s\n", "cold-build", build_ms, "-", "-");
  reporter.AddRow()
      .Set("dataset", corpus.name)
      .Set("path", "cold-build")
      .Set("wall_ms", build_ms)
      .Set("entities", uint64_t{corpus.entities.size()});
  std::printf("%-12s %12.3f %12llu %12llu\n", "v2-mmap", load_ms,
              static_cast<unsigned long long>(rss_delta_kib),
              static_cast<unsigned long long>(bytes));
  reporter.AddRow()
      .Set("dataset", corpus.name)
      .Set("path", "v2-mmap")
      .Set("wall_ms", load_ms)
      .Set("rss_delta_kib", rss_delta_kib)
      .Set("snapshot_bytes", bytes)
      .Set("speedup_vs_build", speedup);
  std::printf("v2 mmap load speedup over cold build: %.1fx\n\n", speedup);

  std::remove(path.c_str());
}

int Run() {
  BenchReporter reporter(
      "snapshot_load",
      "Engine image load: cold build vs v2 mmap",
      "DESIGN.md S11");
  for (const Corpus& corpus : LoadCorpora()) {
    RunCorpus(corpus, reporter);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace aeetes

int main() { return aeetes::bench::Run(); }
