// Entry points of the two kinds of workload run.
#ifndef AEETES_PERFBENCH_RUNS_H_
#define AEETES_PERFBENCH_RUNS_H_

#include "perfbench/util.h"
#include "perfbench/workloads.h"

namespace perfbench {

/// In-process, one thread (usjob_batch, dbworld_batch).
int RunBatch(const Args& args, const WorkloadSpec& spec);

/// Through aeetes_server over the wire (pubmed_serve, pubmed_live).
int RunServed(const Args& args, const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // AEETES_PERFBENCH_RUNS_H_
