#ifndef MODB_DURABILITY_DURABLE_SERVER_H_
#define MODB_DURABILITY_DURABLE_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "durability/group_commit.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "queries/query_server.h"

namespace modb {

// A QueryServer whose database survives crashes. Every Definition-3 update
// is appended to the WAL *before* it is applied (log-before-apply), and
// standing-query registrations are journaled too, so Open() on an existing
// directory reconstructs both the MOD and the query set, rebuilding each
// shared sweep from scratch (Theorem 5 makes that an O(N log N) non-event).
//
// A query has one id at every layer: the in-memory QueryServer registers
// it under the id the WAL journals, so ids stay stable across close/reopen
// and are never reused (recovery resumes the QueryServer's counter past
// every id the log ever named).
//
// Only squared-Euclidean standing queries are accepted — they are defined
// entirely by a query trajectory, which the WAL can journal.
//
// Threading: Commit/ApplyUpdate/AddKnn/AddWithin/RegisterQuery/RemoveQuery/
// Flush/Checkpoint are safe to call from any number of threads — mutations
// serialize on an internal mutex, and concurrent Commit() calls are merged
// into shared group flushes (one WAL append + one fsync for the whole
// group). Checkpoints run on the calling thread under the same mutex; the
// server starts no thread of its own. Reads (AdvanceTo/Answer/Timeline/
// server()/seq()) are NOT synchronized against concurrent mutations;
// quiesce writers first.

struct DurabilityOptions {
  // Used only when the directory holds no durable state yet.
  size_t dim = 2;
  double initial_time = 0.0;
  WalOptions wal;
  SnapshotOptions snapshot;
  // Group-commit batching knobs for Commit()/ApplyUpdate().
  GroupCommitOptions commit;
  // Checkpoint automatically when the active segment exceeds
  // snapshot.trigger_bytes: the group-commit leader whose flush crosses it
  // checkpoints before it returns. Off is useful for tests and for callers
  // that checkpoint on their own schedule.
  bool auto_checkpoint = true;
  // Filesystem seam for all durability I/O; nullptr means Env::Default().
  Env* env = nullptr;
};

class DurableQueryServer {
 public:
  // How Open() found the directory; for logging and tests.
  struct OpenInfo {
    bool recovered = false;  // False: fresh directory initialized.
    bool from_snapshot = false;
    uint64_t snapshot_seq = 0;
    uint64_t replayed_updates = 0;
    uint64_t skipped_updates = 0;
    bool truncated_tail = false;
    uint64_t truncated_bytes = 0;
    std::string truncated_detail;
    size_t live_queries = 0;
  };

  // Opens (recovering) or initializes (creating) the database directory.
  static StatusOr<std::unique_ptr<DurableQueryServer>> Open(
      const std::string& dir, DurabilityOptions options = {});
  // Open() from a repairing RecoverDatabase(dir) the caller already ran.
  static StatusOr<std::unique_ptr<DurableQueryServer>> OpenRecovered(
      const std::string& dir, DurabilityOptions options,
      StatusOr<RecoveryResult> recovered);

  DurableQueryServer(const DurableQueryServer&) = delete;
  DurableQueryServer& operator=(const DurableQueryServer&) = delete;

  // Failure model (docs/INTERNALS.md "Failure model"):
  //
  //  - A failed WAL append or fsync is FAIL-STOP for mutations. After a
  //    failed write the log may end in a torn frame; after a failed fsync
  //    the durable prefix is unknowable. Either way the in-memory state
  //    can no longer be promised durable, so the server enters a sticky
  //    read-only degraded mode: every later mutation returns
  //    kUnavailable, while Answer/Timeline/AdvanceTo keep serving from
  //    memory. A batch whose shared append/fsync fails fails WHOLE: none
  //    of its updates advance seq(), every queued committer in the flush
  //    observes kUnavailable. Recover by reopening the directory (Theorem
  //    5 makes the sweep rebuild cheap); the recovered state is a valid
  //    prefix that never ends inside a batch.
  //  - A failed Checkpoint is RETRYABLE: the tmp snapshot (or half-built
  //    segment) is abandoned and the previous snapshot/segment layout
  //    stays valid. Only the WAL-sync step inside Checkpoint degrades.
  //  - Validation errors (kInvalidArgument, kNotFound, ...) touch no
  //    durable state and never degrade the server.

  // Durably logs `updates` as ONE atomic batch (a single CRC frame — a
  // crash can drop the whole batch, never a prefix of it), then applies
  // them in order. Concurrent Commit() calls are merged into a shared
  // group flush: one WAL append and at most one fsync cover every commit
  // that queued while the previous flush was in flight.
  //
  // The returned Status is the batch's durability outcome. Per-update
  // *apply* statuses (a rejected update — bad precondition — still
  // occupies its slot in the log; recovery skips it identically) land in
  // `apply_statuses` when non-null, in commit order. Dimension validation
  // happens before anything is queued or logged: a kInvalidArgument
  // return means NO update in `updates` was logged.
  Status Commit(const std::vector<Update>& updates,
                std::vector<Status>* apply_statuses = nullptr);

  // Commit() of a batch of one, returning the update's apply status. The
  // log layout is byte-identical to the historical single-update path.
  Status ApplyUpdate(const Update& update);

  // ---- Cross-shard two-phase commit (ShardedQueryServer only) --------
  //
  // The sharded server serializes cross-shard commits (one epoch in
  // flight at a time) and runs them in two phases: LogShardBatch on every
  // participant, then — only if ALL appends succeeded — ApplyLoggedBatch
  // on every participant. A batch is therefore applied nowhere unless it
  // is durably logged everywhere, and recovery replays a kShardBatch only
  // when no later kEpochAbort voids it.

  // Phase 1: durably logs this shard's slice of cross-shard commit
  // `epoch` as ONE kShardBatch frame (epoch stamp and updates are
  // inseparable on disk) under the configured sync policy. Does NOT apply
  // anything; seq() does not advance. An I/O failure degrades the server.
  Status LogShardBatch(uint64_t epoch,
                       const std::vector<uint32_t>& participants,
                       const std::vector<Update>& updates);
  // Phase 2: applies a slice previously logged by LogShardBatch, in
  // order, advancing seq(). Appends nothing and cannot fail as a whole;
  // per-update apply statuses land in `apply_statuses` when non-null.
  void ApplyLoggedBatch(const std::vector<Update>& updates,
                        std::vector<Status>* apply_statuses);
  // Compensation for a failed phase 1 on a SIBLING shard: journals that
  // `epoch`'s slice logged here must be skipped on replay (it was applied
  // nowhere). An I/O failure degrades the server.
  Status AbortShardBatch(uint64_t epoch);

  // Registers a standing squared-Euclidean query under next_query_id()
  // and journals it. The returned id is durable: it names the same query
  // after reopen.
  StatusOr<QueryId> AddKnn(const std::string& gdist_key,
                           const Trajectory& query, size_t k);
  StatusOr<QueryId> AddWithin(const std::string& gdist_key,
                              const Trajectory& query, double threshold);
  // Journals and registers `query` under query.id, which the caller chose
  // (the sharded server registers one id on every shard). kInvalidArgument
  // if query.id < next_query_id(): ids are never reused.
  Status RegisterQuery(const LoggedQuery& query);
  Status RemoveQuery(QueryId id);
  // The id AddKnn/AddWithin would allocate next.
  QueryId next_query_id() const;

  void AdvanceTo(double t) { server_.AdvanceTo(t); }

  // Answer/Timeline by durable id (aborts on unknown id, like QueryServer).
  const std::set<ObjectId>& Answer(QueryId id) const {
    return server_.Answer(id);
  }
  const AnswerTimeline& Timeline(QueryId id) const {
    return server_.Timeline(id);
  }

  // Cost report by durable id (found == false if the id was never
  // registered this process lifetime; a query removed in this lifetime
  // reports found && !live with its accumulated costs). Ledger rows start
  // from zero at reopen while the id keeps naming the same query.
  obs::QueryCostReport ExplainQuery(QueryId id) const {
    return server_.ExplainQuery(id);
  }
  // TopEntries for the LIVE registered queries, unsorted (rank with
  // obs::SortTop).
  std::vector<obs::TopEntry> TopQueries() const;

  // Makes everything appended so far durable (fsync), regardless of the
  // configured sync policy. A failure degrades the server (fail-stop).
  Status Flush();

  // Checkpoints on the calling thread, under the state mutex (so the cut
  // is a consistent point and commits wait for it): fsync the WAL, rotate
  // to a fresh segment re-journaling live queries (and the removal of the
  // highest id handed out, when it is no longer live, so recovery never
  // reuses it), write the live MOD as the snapshot at seq(), and prune
  // files the new snapshot makes obsolete. Crash-safe at every step;
  // retryable on failure (see the failure model above).
  Status Checkpoint();

  // True once a WAL append/fsync failure put the server in read-only
  // degraded mode; degraded_cause() is the first such failure. Sticky for
  // the life of the object — reopen the directory to resume writes.
  bool degraded() const { return !health_.ok(); }
  const Status& degraded_cause() const { return health_; }

  // Outcome of the most recent checkpoint, explicit or automatic (OK if
  // none has run).
  Status last_checkpoint_status() const;

  // Number of update records ever logged (= next segment's start_seq).
  uint64_t seq() const { return seq_; }
  // Highest seq known durable on disk (monotonic): everything at or below
  // it survived an fsync. Trails seq() only under SyncPolicy::kNone,
  // until the next Flush() or checkpoint. Safe to read from any thread.
  uint64_t durable_seq() const {
    return durable_seq_.load(std::memory_order_acquire);
  }
  // Largest cross-shard epoch ever stamped into this shard's log (0 for
  // unsharded databases) / the largest known durable on disk.
  uint64_t epoch() const;
  uint64_t durable_epoch() const {
    return durable_epoch_.load(std::memory_order_acquire);
  }
  // Active segment size / path (for crash-harness cut points).
  uint64_t wal_bytes() const;
  std::string wal_path() const;

  const OpenInfo& open_info() const { return info_; }
  const std::string& dir() const { return dir_; }
  // Live durable queries, ascending by id.
  const std::map<QueryId, LoggedQuery>& live_queries() const {
    return journal_;
  }

  // The in-memory server (for auditors, stats, and read-only inspection).
  QueryServer& server() { return server_; }
  const QueryServer& server() const { return server_; }

 private:
  DurableQueryServer(std::string dir, DurabilityOptions options,
                     QueryServer server, WalWriter wal,
                     SnapshotManager snapshots);

  // AddKnn/AddWithin: registers `query` under next_query_id().
  StatusOr<QueryId> AddNext(LoggedQuery query);
  // The one registration path: journals `query` first when `journal`
  // (recovery registers what the log already holds), then registers it in
  // memory under query.id. Caller holds mu_ (or is Open).
  Status RegisterLocked(const LoggedQuery& query, bool journal);
  // The group-commit leader's flush: log every ticket's updates with one
  // append + shared fsync, then apply them in log order. Takes mu_.
  void FlushBatch(const std::vector<GroupCommitQueue::Ticket*>& batch);
  // The one log step, shared by the group flush, the sharded two-phase
  // commit, registration, removal and epoch aborts: refuses while
  // degraded, appends `batch` (staged_) to the WAL, degrades on an I/O
  // failure, raises epoch_ to `epoch` (a kShardBatch's stamp) and moves
  // the durable watermarks. Caller holds mu_.
  Status LogLocked(const WalBatch& batch, uint64_t epoch = 0);
  // The one apply step for logged updates: each takes the next seq and is
  // applied in order; per-update statuses are appended to `statuses` when
  // non-null. Caller holds mu_.
  void ApplyLocked(const std::vector<Update>& updates,
                   std::vector<Status>* statuses);
  // Stores durable_seq_ and durable_epoch_ together when the WAL holds no
  // unsynced bytes. Caller holds mu_.
  void NoteDurableLocked();
  // Flush() under mu_ (also the checkpoint's WAL sync).
  Status FlushLocked();
  // Checkpoint() under mu_ (also the auto-checkpoint at the end of
  // FlushBatch): WAL fsync, segment rotation + re-journal, snapshot write,
  // prune. Records the outcome for last_checkpoint_status().
  Status CheckpointLocked();
  // OK, or the kUnavailable refusal while degraded. Caller holds mu_.
  Status CheckWritable() const;
  // Marks the server degraded (first cause wins) and returns the
  // kUnavailable status mutations surface. Caller holds mu_.
  Status Degrade(const Status& cause);

  Env* env() const { return options_.env != nullptr ? options_.env
                                                    : Env::Default(); }

  std::string dir_;
  DurabilityOptions options_;
  QueryServer server_;
  std::optional<WalWriter> wal_;  // Engaged for the lifetime of the object.
  SnapshotManager snapshots_;
  uint64_t seq_ = 0;
  std::atomic<uint64_t> durable_seq_{0};
  uint64_t epoch_ = 0;  // Max epoch stamped into the log (guarded by mu_).
  std::atomic<uint64_t> durable_epoch_{0};
  std::map<QueryId, LoggedQuery> journal_;  // Live queries, by id.
  OpenInfo info_;
  Status health_;             // Non-OK: read-only degraded mode (sticky).
  Status checkpoint_status_;  // Last checkpoint outcome.

  // Serializes mutations of everything above. The group-commit leader
  // takes it inside FlushBatch; registrations and checkpoints take it
  // directly.
  mutable std::mutex mu_;

  // Encode staging for every WAL write (guarded by mu_): the Env copies
  // or writes the bytes before AppendBatch returns, so one buffer serves
  // every flush; Clear() keeps capacity, so steady-state encoding
  // allocates nothing.
  WalBatch staged_;

  // Constructed last (its FlushFn captures `this`).
  std::unique_ptr<GroupCommitQueue> commit_queue_;
};

}  // namespace modb

#endif  // MODB_DURABILITY_DURABLE_SERVER_H_
