#ifndef MODB_VERIFY_FAULT_H_
#define MODB_VERIFY_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "verify/differential.h"

namespace modb {

// Exhaustive single-fault I/O-failure matrix for the durability layer, over
// a plain DurableQueryServer (`shards == 0`) or a ShardedQueryServer
// (`shards >= 2`, every shard backed by ONE FaultInjectionEnv, so the k-th
// I/O operation counted across all shard directories fails).
//
// A fixed scripted workload (open fresh, register a knn and a within
// query, commit the first half of the updates in batches of three —
// sharded, every batch is one cross-shard epoch — checkpoint, apply the
// rest one by one, flush) is first run against a counting
// FaultInjectionEnv to learn its operation count n. It is then rerun once
// per (operation k, fault kind) pair — kinds: EIO, ENOSPC, short write,
// fsync failure — with exactly that one operation failing. A sharded epoch
// appends in parallel, so WHICH shard absorbs op k is scheduling-dependent
// and every verdict is universal over the op→shard mapping. Every rerun
// must end in one of:
//
//  - clean completion (the fault was inapplicable at op k, or the layer
//    absorbed it by design — e.g. a failed prune unlink), with the final
//    database bit-identical to an in-memory reference;
//  - a surfaced kUnavailable from a failed explicit Checkpoint on a
//    non-degraded server, after which the SAME Checkpoint call must
//    succeed and the run completes as above (retryability);
//  - a surfaced kUnavailable with the server (sharded: >= 1 shard) in
//    sticky read-only degraded mode with a non-OK cause. A fault inside a
//    batched commit fails the whole batch atomically — seq never lands
//    inside a batch and every per-update status reports the same
//    kUnavailable. AddKnn, Checkpoint and Flush refuse with kUnavailable.
//    Plain, so do ApplyUpdate and Commit; sharded, a commit routed to a
//    degraded shard — alone or mixed with healthy updates — refuses and
//    applies NOTHING, a commit routed entirely to healthy shards still
//    succeeds (liveness), and AnswerPartial() names exactly the degraded
//    shards Health() reports. Reads keep serving answers bit-identical to
//    a reference holding the committed prefix. Power loss is then
//    emulated (unsynced bytes dropped), the directory is reopened with a
//    clean env, and the recovered seq must sit on a commit boundary — a
//    workload batch boundary, or the committed prefix plus some of the
//    liveness commits. The remaining updates then resume in lockstep:
//    bit-identical probes, identical final serialized state, clean sweep
//    audits.
//
// Everything is deterministic in the options up to the sharded lane's
// scheduling-universal verdicts; a failure reproduces (sharded: possibly
// flakily, by design) from the printed repro command.
struct FaultOptions {
  uint64_t seed = 1;
  size_t shards = 0;  // 0: plain server; >= 2: sharded server.
  size_t num_objects = 8;
  size_t num_updates = 24;  // The CLI's --ops.
  size_t k = 3;
  double within_threshold = 150.0 * 150.0;
  // SweepAuditor on both lanes (every shard) of every verification.
  bool audit = false;
  // Workload shape, forwarded to src/workload/generator.
  double box = 300.0;
  double speed_max = 12.0;
  double mean_gap = 0.5;
  // Scratch root; per-run subdirectories are created (and removed on
  // success) inside. Must not hold unrelated state.
  std::string dir;
  // Cap on how many distinct operations are fault-tested per kind (the
  // ops are strided evenly); 0 tests every operation.
  size_t max_faults = 0;
};

struct FaultResult {
  uint64_t total_ops = 0;  // I/O operations in the reference run.
  size_t runs = 0;         // Fault runs executed (ops tested x 4 kinds).
  size_t injected = 0;     // Runs whose planned fault actually fired.
  size_t surfaced = 0;     // Runs that surfaced an error to the caller.
  size_t degraded_runs = 0;        // ... of which entered degraded mode.
  size_t checkpoint_retries = 0;   // Failed Checkpoints retried OK.
  size_t liveness_commits = 0;  // Healthy-shard commits that succeeded
                                // while a sibling was degraded.
  size_t reopens = 0;      // Power-loss reopen + lockstep resumes passed.
  size_t probes = 0;       // Bit-exact answer comparisons performed.
  size_t audits = 0;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

// Runs the full matrix. Deterministic in `options` (the directory's
// content is derived state; its path does not matter).
FaultResult RunFaultMatrix(const FaultOptions& options);

// The modb_fuzz invocation reproducing `options`.
std::string FaultReproCommand(const FaultOptions& options);

}  // namespace modb

#endif  // MODB_VERIFY_FAULT_H_
