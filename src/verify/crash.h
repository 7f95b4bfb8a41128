#ifndef MODB_VERIFY_CRASH_H_
#define MODB_VERIFY_CRASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "verify/differential.h"

namespace modb {

// Crash-injection differential fuzzing for the durability layer. One
// seed-deterministic run drives a server through a randomized workload in
// seeded Commit() batches (1..8 updates), so every WAL frame boundary is
// a commit boundary, then "crashes" it by cutting its WAL files:
//
//  - plain (`shards == 0`): a DurableQueryServer commits a seeded prefix,
//    auto-checkpointing every `trigger_bytes`, and its newest segment is
//    cut (a torn write);
//  - sharded (`shards >= 2`): a ShardedQueryServer commits the whole
//    workload, one cross-shard epoch per batch, checkpointing once (every
//    shard rotates) after a seeded batch, and EVERY shard's WAL is cut
//    independently (a machine-wide power loss), never below the bytes
//    that checkpoint fsynced.
//
// Each cut lands on a recorded commit boundary (power loss the instant a
// flush's fsync returned) or, with equal odds, at a random byte offset.
// Reopen must recover exactly the consistent cut: the longest prefix of
// commits whose frames survived whole in every WAL they touched — for a
// sharded server with every shard holding its share of it — and a WAL
// cut on a boundary must have no torn tail to repair. The remaining
// updates then resume in lockstep against a fresh in-memory QueryServer
// that replayed the recovered prefix (lockstep.h): every standing answer
// must be BIT-IDENTICAL, and the final databases must serialize to the
// same bytes. SweepAuditor runs on both lanes when `audit` is set.
struct CrashOptions {
  uint64_t seed = 1;
  size_t shards = 0;  // 0: plain server; >= 2: sharded server.
  size_t num_objects = 16;
  size_t num_updates = 80;  // The CLI's --ops.
  size_t k = 3;
  double within_threshold = 150.0 * 150.0;
  bool audit = false;
  // Workload shape, forwarded to src/workload/generator.
  double box = 300.0;
  double speed_max = 12.0;
  double mean_gap = 0.5;
  // Scratch directory for the database; created, filled, and (by the CLI)
  // deleted per run. Must not hold prior state.
  std::string dir;
  // Plain lane's auto-checkpoint trigger during the doomed run — small,
  // so rotation and snapshot crash windows are exercised too. 0 disables
  // checkpoints. The sharded lane never auto-checkpoints; it calls the
  // coordinated Checkpoint() once instead.
  uint64_t trigger_bytes = 8 * 1024;
};

struct CrashResult {
  size_t crash_index = 0;      // Updates applied before the simulated crash.
  size_t commits = 0;          // Commit batches applied before it.
  uint64_t cut_bytes = 0;      // Bytes sliced off, summed over WALs.
  size_t boundary_cuts = 0;    // WALs cut exactly at a commit boundary.
  bool torn_tail = false;      // Reopen found (and repaired) a torn record.
  uint64_t recovered_seq = 0;  // Update records that survived the cut.
  size_t lost_updates = 0;     // crash_index - recovered updates.
  size_t requeried = 0;        // Registrations lost to the cut, re-added.
  size_t probes = 0;           // Bit-exact answer comparisons performed.
  size_t audits = 0;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

// Runs one crash-injection iteration. Deterministic in `options` (the
// directory's *content* is derived state; its path does not matter).
CrashResult RunCrashInjection(const CrashOptions& options);

// The modb_fuzz invocation reproducing `options`.
std::string CrashReproCommand(const CrashOptions& options);

}  // namespace modb

#endif  // MODB_VERIFY_CRASH_H_
