// perfbench: the repository's end-to-end performance benchmark. Normally
// started through run.py, which builds it; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH --workdir DIR [--quick]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/runs.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--server") {
      args.server_bin = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!(args.seconds > 0.0) || args.workdir.empty()) {
    std::fprintf(stderr, "--seconds must be positive and --workdir set\n");
    return 2;
  }
  return spec->mode == perfbench::Mode::kBatch
             ? perfbench::RunBatch(args, *spec)
             : perfbench::RunServed(args, *spec);
}
