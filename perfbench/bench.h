// The end-to-end benchmark: runs one workload through a
// ShardedQueryServer and reports metrics (untraced), or replays it layer
// by layer and reports per-layer metrics (traced).
#ifndef MODB_PERFBENCH_BENCH_H_
#define MODB_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workload.h"

namespace modb::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct RunConfig {
  double seconds = 10.0;
  // Scratch directory for the databases; created and removed by the run.
  std::string dir;
  // Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

// Untraced run: setup (repeated), warm-up, timed closed loop for
// config.seconds, output checks, then a reopen of the directory.
RunResult RunMeasured(const Workload& w, const RunConfig& config);

// Traced run: the workload's fixed traced prefix through the sharded
// server with spans around every call, then the same inputs replayed
// through DurableQueryServer and QueryServer per shard.
RunResult RunTraced(const Workload& w, const RunConfig& config);

}  // namespace modb::perfbench

#endif  // MODB_PERFBENCH_BENCH_H_
