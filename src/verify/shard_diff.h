#ifndef MODB_VERIFY_SHARD_DIFF_H_
#define MODB_VERIFY_SHARD_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "verify/differential.h"

namespace modb {

// Sharded-vs-single differential fuzzing: one seed-deterministic run
// drives the SAME randomized workload through two ShardedQueryServer
// lanes — one at S=1 and one at S=shards — in seeded Commit() batches,
// and demands BIT-IDENTICAL quiesced answers after every batch. Both
// lanes run the same per-shard engine code and the same canonical merge
// (queries/merge.h), so any divergence is a real partitioning bug:
// a mis-routed update, a torn fan-out registration, a merge rule that
// depends on shard count, or a publish racing an apply.
//
// The probe set covers every merge rule: standing k-NN and within
// (including two queries SHARING a gdist_key with different
// trajectories, so the engine's first-query-fixes-the-group-gdist rule
// is exercised across the fan-out), plus the one-shot merged snapshot
// k-NN, fastest-arrival, and inside-region timeline paths. Mid-run both
// lanes Checkpoint(); at the end both lanes close, reopen (recovery),
// and must still agree. SweepAuditor re-derives every shard's sweep on
// both lanes when `audit` is set.
struct ShardDiffOptions {
  uint64_t seed = 1;
  size_t shards = 4;        // The wide lane's shard count (>= 2).
  size_t num_objects = 24;
  size_t num_updates = 80;  // The CLI's --ops.
  size_t k = 3;
  double within_threshold = 150.0 * 150.0;
  bool audit = false;
  // Workload shape, forwarded to src/workload/generator.
  double box = 300.0;
  double speed_max = 12.0;
  double mean_gap = 0.5;
  // Scratch directory; both lanes live under it (<dir>/s1, <dir>/sN).
  // Created and filled per run; the CLI deletes it. Must not hold prior
  // state.
  std::string dir;
};

struct ShardDiffResult {
  size_t batches = 0;        // Commit() batches replayed per lane.
  size_t probes = 0;         // Bit-exact standing-answer comparisons.
  size_t merged_probes = 0;  // One-shot merged-query comparisons.
  size_t audits = 0;         // SweepAuditor runs across both lanes.
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

// Runs one sharded differential iteration. Deterministic in `options`.
ShardDiffResult RunShardDifferential(const ShardDiffOptions& options);

// The modb_fuzz invocation reproducing `options`.
std::string ShardReproCommand(const ShardDiffOptions& options);

}  // namespace modb

#endif  // MODB_VERIFY_SHARD_DIFF_H_
