#ifndef MODB_SHARD_SHARDED_SERVER_H_
#define MODB_SHARD_SHARDED_SERVER_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "durability/durable_server.h"
#include "durability/shard_layout.h"
#include "queries/merge.h"
#include "queries/region_queries.h"
#include "shard/answer_board.h"
#include "shard/work_pool.h"

namespace modb {

struct ShardedServerOptions {
  // Shard count used when initializing a fresh directory. On reopen the
  // manifest wins; a nonzero value that disagrees with it is an error
  // (resharding is a migration, not an Open flag), and 0 means "adopt
  // whatever the manifest says" (tools opening unknown directories).
  size_t shards = 1;
  // Workers in the fork/join pool that runs the per-shard fan-outs (the
  // calling thread runs shards too); 0 picks min(shards,
  // hardware_concurrency).
  size_t threads = 0;
  // Per-shard durability configuration (each shard is one
  // DurableQueryServer in its own subdirectory). `dim` seeds the manifest
  // on fresh init; on reopen the manifest's dimension is used.
  // `auto_checkpoint` is forced OFF in sharded mode: a shard that rotated
  // its segment on its own schedule could seal an epoch that is not yet
  // durable on a sibling, making the epoch un-rollbackable. Checkpoint()
  // coordinates the rotation behind an all-shard fsync barrier instead.
  DurabilityOptions durability;
  // Tolerate a shard whose Open fails with kUnavailable (e.g. its
  // directory is on a dead disk): the shard becomes a placeholder, the
  // server opens READ-ONLY (mutations return kUnavailable — handing out
  // epochs without every shard's log would corrupt the cut), reads merge
  // the healthy shards, and Health()/AnswerPartial() report the outage.
  // Epoch-cut healing is skipped (it needs every shard's log). kDataLoss
  // still refuses: that is recognized corruption, not an outage. Intended
  // for inspection tools (db-info); default is strict.
  bool allow_degraded_shards = false;
};

// One shard's health, as reported by ShardedQueryServer::Health().
struct ShardHealth {
  size_t shard = 0;
  bool degraded = false;
  Status cause;               // OK when healthy; the first failure else.
  uint64_t durable_epoch = 0; // Largest cross-shard epoch durable here.
  uint64_t durable_seq = 0;   // Largest update seq durable here.
};

// A merged answer plus the shards whose contribution may be stale: a
// degraded shard's cell still holds its last successfully applied state,
// so the merge is a valid answer over "healthy shards now + degraded
// shards at their failure point" — the caller decides if that is good
// enough.
struct PartialAnswer {
  std::set<ObjectId> members;
  std::vector<size_t> degraded_shards;  // Ascending; empty = exact.
};

// A shared-nothing sharded query server: objects hash-partition across S
// shards, each owning a full private DurableQueryServer — its own sweep
// state, WAL segment chain and snapshots under <dir>/shard-NNN/ — so
// ingest parallelizes with no shared mutable state between shards.
// Standing queries register fan-out on every shard; after each batch a
// shard applies, it republishes its local answer (members + g-distance
// values) into a per-(query, shard) seqlock cell (answer_board.h), and
// Answer() merges the S cells through the canonical rules in
// queries/merge.h. Readers never take any shard or pool lock.
//
// Consistency contract:
//  - Within one shard, answers are exactly DurableQueryServer's.
//  - Across shards, Commit() IS atomic, live and across crashes. Every
//    batch is stamped with a monotone global epoch (one epoch in flight
//    at a time) and commits in two phases: the epoch-stamped sub-batch is
//    durably LOGGED on every participating shard first (kShardBatch — the
//    stamp and the updates share one CRC frame), and only when every
//    append succeeded is anything APPLIED. If any participant's append
//    fails, the healthy participants journal a kEpochAbort compensation
//    record, nothing is applied anywhere, and the whole batch returns
//    kUnavailable. On reopen, recovery computes the largest epoch fully
//    present on every shard it touched (the consistent cut) and
//    truncates shards that ran ahead back to that cut — reopen always
//    lands on a whole-batch boundary across ALL shards, the same
//    serial-equivalence the S=1 crash fuzz enforces (modb_fuzz --crash
//    --shards proves it). A commit advances and publishes only its
//    participating shards: every other shard keeps its old clock and its
//    old answer cells until the next AdvanceTo. So an Answer() read right
//    after a commit can merge cells published at different instants, and
//    a merged k-NN answer can be wrong until that AdvanceTo, however long
//    the gap. Reads after AdvanceTo(t) with no writers are BIT-IDENTICAL
//    to a single-shard run over the same updates (the modb_fuzz --shards
//    differential oracle).
//  - Mutations (Commit/ApplyUpdate/Add*/RemoveQuery/AdvanceTo/Flush/
//    Checkpoint) may race each other; Answer() may race all of them
//    EXCEPT registration/removal, which change the query set itself.
//
// Failure model: each shard fail-stops independently. A commit touching a
// degraded shard fails kUnavailable and touches NOTHING (no epoch is
// allocated); commits routed entirely to healthy shards keep succeeding.
// Health() reports each shard's degraded cause and durable epoch;
// AnswerPartial() returns the merged answer plus the exact set of
// degraded shards whose contribution is frozen at their failure point
// (modb_fuzz --faults --shards proves the isolation). Checkpoint()
// quiesces commits, fsyncs EVERY shard (the epoch-durability barrier:
// only epochs durable on all participants may reach a sealed segment,
// because cut-healing can only truncate the ACTIVE segment), then
// rotates each shard with one in-place retry — a retryable failure on
// one shard does not abort the others. Reopen recovers every shard
// directory once, heals to the epoch cut, and cross-checks that all S
// query journals agree; disagreement (e.g. one shard's journal lost a
// registration to a torn tail the others kept) is kDataLoss.
class ShardedQueryServer {
 public:
  // The stable object -> shard map: splitmix64(oid) % shards. Fixed
  // platform-independent arithmetic, so a directory moved across machines
  // routes identically; tests pin concrete values.
  static size_t ShardOf(ObjectId oid, size_t shards);

  // Opens (recovering every shard once, and a shard that healing rolled
  // back once more) or initializes (writing the manifest and creating the
  // shard subdirectories) a sharded database directory.
  static StatusOr<std::unique_ptr<ShardedQueryServer>> Open(
      const std::string& dir, ShardedServerOptions options = {});

  ShardedQueryServer(const ShardedQueryServer&) = delete;
  ShardedQueryServer& operator=(const ShardedQueryServer&) = delete;

  size_t shard_count() const { return shards_.size(); }
  const ShardManifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }

  // Routes each update to its shard and commits the batch atomically
  // across shards: one global epoch, phase-1 log fan-out in parallel on
  // the pool (one shard.dispatch span each), then phase-2 apply fan-out
  // only if every append succeeded. Fails kUnavailable touching nothing
  // when any participating shard is already degraded. The whole batch
  // succeeds or fails together; per-update apply statuses land in
  // `apply_statuses` (commit order) when non-null.
  Status Commit(const std::vector<Update>& updates,
                std::vector<Status>* apply_statuses = nullptr);
  // Commit() of a batch of one, returning the update's apply status.
  Status ApplyUpdate(const Update& update);

  // Fan-out registration: the query registers on EVERY shard under one
  // durable id, the largest next id any shard would allocate. Only
  // squared-Euclidean standing queries, as in DurableQueryServer.
  StatusOr<QueryId> AddKnn(const std::string& gdist_key,
                           const Trajectory& query, size_t k);
  StatusOr<QueryId> AddWithin(const std::string& gdist_key,
                              const Trajectory& query, double threshold);
  Status RemoveQuery(QueryId id);

  // Advances every shard (in parallel) and republishes every answer cell
  // at t, making subsequent Answer() reads exact as of t.
  void AdvanceTo(double t);

  // The merged current answer: reads every shard's seqlock cell and
  // k-way-merges (kNN) or unions (within) the candidates. Lock-free —
  // never blocks on, nor blocks, the shard writers. Aborts on unknown id
  // (like QueryServer::Answer).
  std::set<ObjectId> Answer(QueryId id) const;

  // One-shot cross-shard snapshot queries (Theorem 4 path per shard, then
  // merge). These read shard engine state directly, so unlike Answer()
  // they must not race mutations — quiesce writers first.
  std::set<ObjectId> SnapshotKnnMerged(const Trajectory& query, size_t k,
                                       double t) const;
  std::set<ObjectId> FastestArrivalAtMerged(const Vec& target,
                                            double t) const;
  AnswerTimeline InsideRegionMerged(const ConvexPolygon& region,
                                    TimeInterval interval) const;

  // The merged answer plus the exact set of degraded shards (see
  // PartialAnswer). Same locking contract as Answer().
  PartialAnswer AnswerPartial(QueryId id) const;

  // Merged cost report (docs/QUERYCOST.md): fans ExplainQuery out to
  // every shard by the query's id, sums the own/group rows, and
  // fills report.shards with the per-shard breakdown (found == false for
  // a shard that failed to open). answer_size is the MERGED answer when
  // the query is live; each breakdown entry carries the shard-local one.
  // Like the per-shard ledgers, costs restart from zero at reopen.
  obs::QueryCostReport ExplainQuery(QueryId id) const;
  // Merged TopEntries for the live queries: per-query scores and rows
  // summed across shards, unsorted (rank with obs::SortTop).
  std::vector<obs::TopEntry> TopQueries() const;

  // Flush every shard in parallel; the first error in shard order wins
  // (all shards run).
  Status Flush();
  // Coordinated checkpoint: quiesce commits, fsync every shard (the
  // epoch-durability barrier — if ANY flush fails, nothing rotates), then
  // checkpoint each shard with one in-place retry, attempting every shard
  // before reporting the first error.
  Status Checkpoint();

  // Per-shard health, ascending by shard index: degraded cause plus the
  // durable epoch/seq high-water marks.
  std::vector<ShardHealth> Health() const;

  // True if ANY shard fail-stopped (that shard's updates are refused;
  // commits routed entirely to healthy shards keep succeeding).
  bool degraded() const;
  // Total update records logged across shards.
  uint64_t seq() const;
  // The most-advanced shard clock (all shards agree after AdvanceTo).
  double now() const;
  // True if any shard directory held durable state before this Open.
  bool recovered() const { return recovered_; }

  // Direct shard access for audits, per-shard stats and tests. Under
  // allow_degraded_shards a shard that failed to open is a placeholder —
  // check shard_open() before dereferencing it.
  bool shard_open(size_t index) const {
    return shards_[index]->db != nullptr;
  }
  DurableQueryServer& shard(size_t index) { return *shards_[index]->db; }
  const DurableQueryServer& shard(size_t index) const {
    return *shards_[index]->db;
  }

  // Live durable queries (identical on every shard; validated at Open).
  const std::map<QueryId, LoggedQuery>& live_queries() const;

 private:
  struct Shard {
    // Null only for a placeholder under allow_degraded_shards (the shard
    // failed to open); open_error then records why.
    std::unique_ptr<DurableQueryServer> db;
    Status open_error;
    // Serializes this shard's apply/advance/publish tasks. Shard-private:
    // cross-shard work never holds two of these, and readers never touch
    // them.
    std::mutex mu;
  };
  struct QueryState {
    LoggedQuery logged;
    std::vector<std::unique_ptr<AnswerCell>> cells;  // One per shard.
  };

  ShardedQueryServer(std::string dir, ShardManifest manifest,
                     size_t threads);

  // Rebuilds queries_ from the (validated-identical) shard journals.
  Status RebuildQueryStates();
  // Adds a QueryState (one empty cell per shard) for each of `added`,
  // then publishes every shard so the new cells fill.
  void InstallQueries(const std::map<QueryId, LoggedQuery>& added);
  // Recomputes and publishes shard `s`'s cell for every query, valued by
  // the g-distance the shard's sweep ranks by. Caller holds
  // shards_[s]->mu.
  void PublishShardLocked(size_t s);
  // Registration fan-out shared by AddKnn/AddWithin: registers `query`
  // under one id on every shard.
  StatusOr<QueryId> AddFanOut(LoggedQuery query);
  // Pre-Open healing over each shard's recovery (kNotFound: a fresh
  // shard): computes the largest epoch fully present on every shard it
  // touched, truncates shards that ran ahead back to that cut and
  // recovers them again, keeping their first torn-tail report.
  static Status HealEpochCut(
      const std::string& dir, Env* env,
      std::vector<StatusOr<RecoveryResult>>* recoveries);
  // Recounts degraded shards into the modb.shard.degraded gauge.
  void UpdateDegradedGauge() const;
  // The first non-placeholder shard (for journal reads); aborts if none.
  const DurableQueryServer& AnyHealthyShard() const;

  std::string dir_;
  ShardManifest manifest_;
  bool recovered_ = false;
  // True when a placeholder shard exists (allow_degraded_shards): every
  // mutation returns kUnavailable — allocating epochs without all logs
  // would corrupt the consistent cut.
  bool read_only_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  WorkPool pool_;

  // Serializes cross-shard commits end to end: the epoch allocated under
  // it is fully logged (or aborted) on every participant before the next
  // is handed out, so per-shard epoch order is monotone and at most ONE
  // epoch is ever in flight — cut-healing only ever rolls back the last
  // unacknowledged commit, never an acknowledged one. Registrations and
  // removals take it too (a registration frame interleaved between a
  // doomed epoch's per-shard appends would be truncated on some shards
  // but not others), and Checkpoint takes it to quiesce commits across
  // the all-shard fsync barrier. Registration/removal serializes here
  // (never under a shard mutex), so every shard sees registrations in the
  // same order. Lock order: epoch_mu_ -> shard mu.
  mutable std::mutex epoch_mu_;
  uint64_t next_epoch_ = 1;  // Guarded by epoch_mu_.

  // Guards the queries_ map STRUCTURE: registration/removal mutate it,
  // and per-shard publish tasks iterate it. Answer() reads it unlocked —
  // safe because the contract forbids Answer racing registration, and
  // publishes mutate cell contents, never the map.
  mutable std::mutex queries_mu_;
  std::map<QueryId, std::unique_ptr<QueryState>> queries_;
};

}  // namespace modb

#endif  // MODB_SHARD_SHARDED_SERVER_H_
