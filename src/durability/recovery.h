#ifndef MODB_DURABILITY_RECOVERY_H_
#define MODB_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "durability/wal.h"
#include "trajectory/mod.h"

namespace modb {

// Crash recovery: rebuilds the MOD (and the set of live standing queries)
// from a database directory of snapshot files and WAL segments.
//
// The state machine (docs/INTERNALS.md "Durability" has the full spec):
//   1. Pick the newest snapshot that parses; corrupt ones are skipped.
//   2. Replay WAL segments with start_seq >= the snapshot's seq, in order,
//      checking the chain is gap-free.
//   3. A torn tail in the FINAL segment (short read, CRC mismatch, or
//      undecodable payload) truncates the log there — by Definition 3 the
//      valid prefix is itself a consistent database — and, with `repair`,
//      physically truncates the file so recovery is idempotent. Corruption
//      in a NON-final segment is unrecoverable data loss and fails.
//   4. Query registrations/removals are folded into the live-query set;
//      re-journaled records at segment heads fold in idempotently.
//      next_query_id exceeds every id a registration or removal names.
//
// Engines are NOT persisted: the caller re-registers the returned queries
// against a fresh QueryServer, rebuilding each sweep per Theorem 5.

struct RecoveryOptions {
  // Physically truncate a torn tail (and delete a trailing segment whose
  // header itself is torn) so a second recovery sees a clean log.
  bool repair = true;
  // Filesystem seam; nullptr means Env::Default().
  Env* env = nullptr;
};

// One non-aborted kShardBatch stamp seen during replay, in log order.
// The sharded healer truncates a shard's active segment at `offset` to
// roll an epoch (and everything after it) back to the consistent cut.
struct EpochMark {
  uint64_t epoch = 0;
  std::vector<uint32_t> participants;
  uint64_t offset = 0;  // Frame start offset within its segment.
  // Only active-segment marks can be rolled back; a mark buried in a
  // sealed segment is permanent (the checkpoint barrier guarantees it was
  // durable on every participant before the seal).
  bool in_active_segment = false;
};

struct RecoveryResult {
  MovingObjectDatabase mod{1};
  // Updates ever applied = what the next WAL segment would start at.
  uint64_t next_seq = 0;
  // Seq of the snapshot the state was seeded from (0 and !from_snapshot
  // when replay started from the empty database).
  uint64_t snapshot_seq = 0;
  bool from_snapshot = false;
  // Update records replayed from the WAL on top of the seed.
  uint64_t replayed_updates = 0;
  // Update records whose Apply failed (they failed identically when first
  // logged; the log-before-apply protocol keeps them in the WAL).
  uint64_t skipped_updates = 0;
  bool truncated_tail = false;
  uint64_t truncated_bytes = 0;
  std::string truncated_detail;
  // Live standing queries in registration (id) order.
  std::vector<LoggedQuery> live_queries;
  WalQueryId next_query_id = 0;
  // The segment to continue appending to; empty if none survived (the
  // caller starts a fresh segment at next_seq).
  std::string active_wal_path;
  // ---- Cross-shard epoch state (all zero/empty for unsharded logs) ----
  // Largest epoch this shard has ever stamped (floors, marks, and aborts
  // included): the sharded server's next epoch must exceed this.
  uint64_t max_epoch = 0;
  // Largest kEpochFloor seen: every epoch <= this was durable here when a
  // sealed segment's checkpoint barrier ran (presence by implication even
  // after the segments mentioning those epochs were pruned).
  uint64_t epoch_floor = 0;
  // Non-aborted kShardBatch stamps, in log order.
  std::vector<EpochMark> epoch_marks;
  // Epochs with a kEpochAbort record: their batches were applied nowhere,
  // so the healer excludes them from the consistent-cut computation.
  std::vector<uint64_t> aborted_epochs;
};

// Recovers from `dir`. NotFound when the directory holds no durable state
// at all (missing, empty, or no snapshot/WAL files) — callers decide
// whether that means "initialize fresh" or "error". A directory or file
// that *exists but cannot be read* (EIO, EACCES, short read) is
// kUnavailable, never NotFound: conflating the two would let a transient
// I/O error masquerade as an empty database and orphan real data.
// Recognized corruption beyond torn-tail repair (a hole in the segment
// chain, a corrupt non-final segment) is kDataLoss. Any failure leaves
// the directory untouched.
StatusOr<RecoveryResult> RecoverDatabase(const std::string& dir,
                                         const RecoveryOptions& options = {});

}  // namespace modb

#endif  // MODB_DURABILITY_RECOVERY_H_
