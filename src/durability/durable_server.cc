#include "durability/durable_server.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <utility>

#include "gdist/builtin.h"
#include "obs/flight_recorder.h"
#include "obs/modb_metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace fs = std::filesystem;

namespace modb {
namespace {

std::string SegmentPath(const std::string& dir, uint64_t start_seq) {
  return (fs::path(dir) / WalFileName(start_seq)).string();
}

}  // namespace

DurableQueryServer::DurableQueryServer(std::string dir,
                                       DurabilityOptions options,
                                       QueryServer server, WalWriter wal,
                                       SnapshotManager snapshots)
    : dir_(std::move(dir)),
      options_(options),
      server_(std::move(server)),
      wal_(std::move(wal)),
      snapshots_(std::move(snapshots)) {
  commit_queue_ = std::make_unique<GroupCommitQueue>(
      options_.commit,
      [this](const std::vector<GroupCommitQueue::Ticket*>& batch) {
        FlushBatch(batch);
      });
}

StatusOr<std::unique_ptr<DurableQueryServer>> DurableQueryServer::Open(
    const std::string& dir, DurabilityOptions options) {
  // Recovery must repair torn tails: the active segment is reopened for
  // append and must end on a record boundary.
  return OpenRecovered(
      dir, options, RecoverDatabase(dir, {.repair = true, .env = options.env}));
}

StatusOr<std::unique_ptr<DurableQueryServer>>
DurableQueryServer::OpenRecovered(const std::string& dir,
                                  DurabilityOptions options,
                                  StatusOr<RecoveryResult> recovered) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  // Only kNotFound ("no durable state at all") falls through to fresh
  // initialization — an unreadable directory or file (kUnavailable) and
  // recognized corruption (kDataLoss) surface instead of silently
  // orphaning data.
  const bool found = recovered.ok();
  RecoveryResult r;
  if (found) {
    r = std::move(recovered).value();
  } else if (recovered.status().code() == StatusCode::kNotFound) {
    MODB_RETURN_IF_ERROR(env->CreateDirs(dir));
    r.mod = MovingObjectDatabase(options.dim, options.initial_time);
  } else {
    return recovered.status();
  }

  // Fresh directory, or recovery ended on a snapshot/deleted segment:
  // start a new segment at the current seq.
  const bool fresh_segment = r.active_wal_path.empty();
  StatusOr<WalWriter> wal =
      fresh_segment
          ? WalWriter::Create(SegmentPath(dir, r.next_seq),
                              WalSegmentHeader{r.mod.dim(), r.next_seq,
                                               r.mod.last_update_time()},
                              options.wal, env)
          : WalWriter::OpenForAppend(r.active_wal_path, options.wal, env);
  MODB_RETURN_IF_ERROR(wal.status());
  if (fresh_segment) MODB_RETURN_IF_ERROR(env->SyncDir(dir));

  const double start_time = r.mod.last_update_time();
  QueryServer server(std::move(r.mod), start_time);
  SnapshotManager snapshots(dir, options.snapshot, env);

  std::unique_ptr<DurableQueryServer> db(
      new DurableQueryServer(dir, options, std::move(server),
                             std::move(wal).value(), std::move(snapshots)));
  db->seq_ = r.next_seq;
  // Everything recovered was read back from disk: it is durable.
  db->durable_seq_.store(r.next_seq, std::memory_order_release);
  db->epoch_ = r.max_epoch;
  db->durable_epoch_.store(r.max_epoch, std::memory_order_release);
  db->info_ = OpenInfo{.recovered = found,
                       .from_snapshot = r.from_snapshot,
                       .snapshot_seq = r.snapshot_seq,
                       .replayed_updates = r.replayed_updates,
                       .skipped_updates = r.skipped_updates,
                       .truncated_tail = r.truncated_tail,
                       .truncated_bytes = r.truncated_bytes,
                       .truncated_detail = r.truncated_detail,
                       .live_queries = r.live_queries.size()};
  for (const LoggedQuery& query : r.live_queries) {
    MODB_RETURN_IF_ERROR(db->RegisterLocked(query, /*journal=*/false));
  }
  // Past every id the log ever named, removed ones included.
  db->server_.RaiseNextQueryId(r.next_query_id);
  return db;
}

Status DurableQueryServer::CheckWritable() const {
  if (health_.ok()) return Status::Ok();
  return Status::Unavailable("read-only degraded mode (reopen to recover): " +
                             health_.ToString());
}

Status DurableQueryServer::Degrade(const Status& cause) {
  if (health_.ok()) {
    health_ = cause;  // First failure wins; sticky.
    obs::M().degraded_entries->Increment();
    // The instant inherits the failing update's trace id from the ambient
    // context, then the whole recent history is dumped beside the data:
    // the flight recorder's last spans ARE the failure's causal chain.
    obs::TraceInstant(obs::SpanName::kDegradedEntry, obs::kTraceNoId,
                      server_.now(), static_cast<uint64_t>(cause.code()));
    (void)obs::FlightRecorder::Global().DumpToFile(dir_ +
                                                   "/flight-recorder.json");
    obs::FlightRecorder::Global().AutoDump();
    // The slow-update log rides along: the K costliest cascades, each
    // with a trace id replayable against the dump above.
    (void)obs::SlowLog::Global().DumpToFile(dir_ + "/slow-log.json");
    obs::SlowLog::Global().AutoDump();
  }
  return Status::Unavailable(
      "durability failure, server is now read-only (reopen to recover): " +
      cause.ToString());
}

Status DurableQueryServer::Commit(const std::vector<Update>& updates,
                                  std::vector<Status>* apply_statuses) {
  if (apply_statuses != nullptr) apply_statuses->clear();
  // The segment dimension is fixed for the life of the directory, so a
  // bad update is refused before it is queued: nothing of its batch is
  // logged.
  for (const Update& update : updates) {
    MODB_RETURN_IF_ERROR(CheckUpdateDim(update, server_.mod().dim()));
  }
  if (updates.empty()) return Status::Ok();
  return commit_queue_->Commit(updates, apply_statuses);
}

Status DurableQueryServer::ApplyUpdate(const Update& update) {
  // Root span of the causal chain; the group flush that carries this
  // update opens its own commit.group/commit.batch spans on the leader's
  // thread.
  obs::TraceSpan span(obs::SpanName::kDurableUpdate, update.oid, update.time,
                      static_cast<uint64_t>(update.kind));
  std::vector<Status> statuses;
  const Status committed = Commit({update}, &statuses);
  if (!committed.ok()) return committed;
  return statuses.empty() ? Status::Ok() : statuses.front();
}

Status DurableQueryServer::LogShardBatch(
    uint64_t epoch, const std::vector<uint32_t>& participants,
    const std::vector<Update>& updates) {
  for (const Update& update : updates) {
    MODB_RETURN_IF_ERROR(CheckUpdateDim(update, server_.mod().dim()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  staged_.Clear();
  staged_.AddShardBatch(epoch, participants, updates);
  return LogLocked(staged_, epoch);
}

void DurableQueryServer::ApplyLoggedBatch(const std::vector<Update>& updates,
                                          std::vector<Status>* apply_statuses) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyLocked(updates, apply_statuses);
}

Status DurableQueryServer::AbortShardBatch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  staged_.Clear();
  staged_.AddEpochAbort(epoch);
  return LogLocked(staged_);
}

Status DurableQueryServer::LogLocked(const WalBatch& batch, uint64_t epoch) {
  MODB_RETURN_IF_ERROR(CheckWritable());
  const Status logged = wal_->AppendBatch(batch);
  if (!logged.ok()) return Degrade(logged);
  epoch_ = std::max(epoch_, epoch);
  NoteDurableLocked();
  return Status::Ok();
}

void DurableQueryServer::ApplyLocked(const std::vector<Update>& updates,
                                     std::vector<Status>* statuses) {
  obs::TraceSpan span(obs::SpanName::kCommitBatch, obs::kTraceNoId,
                      std::numeric_limits<double>::quiet_NaN(),
                      updates.size());
  for (const Update& update : updates) {
    ++seq_;
    const Status applied = server_.ApplyUpdate(update);
    if (statuses != nullptr) statuses->push_back(applied);
  }
  NoteDurableLocked();
}

void DurableQueryServer::NoteDurableLocked() {
  if (wal_->unsynced_bytes() != 0) return;
  durable_seq_.store(seq_, std::memory_order_release);
  durable_epoch_.store(epoch_, std::memory_order_release);
}

uint64_t DurableQueryServer::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void DurableQueryServer::FlushBatch(
    const std::vector<GroupCommitQueue::Ticket*>& batch) {
  size_t total_updates = 0;
  for (const GroupCommitQueue::Ticket* ticket : batch) {
    total_updates += ticket->updates->size();
  }
  obs::TraceSpan group(obs::SpanName::kCommitGroup, obs::kTraceNoId,
                      std::numeric_limits<double>::quiet_NaN(),
                      total_updates);
  std::lock_guard<std::mutex> lock(mu_);
  const auto fail_all = [&](const Status& refusal) {
    for (GroupCommitQueue::Ticket* ticket : batch) {
      ticket->result = refusal;
      if (ticket->apply_statuses != nullptr) {
        ticket->apply_statuses->assign(ticket->updates->size(), refusal);
      }
    }
  };

  // Stage the whole group: one kUpdate frame for a commit of one
  // (byte-identical to the historical layout), one atomic kUpdateBatch
  // frame per larger commit.
  staged_.Clear();
  for (const GroupCommitQueue::Ticket* ticket : batch) {
    if (ticket->updates->size() == 1) {
      staged_.AddUpdate(ticket->updates->front());
    } else {
      staged_.AddUpdates(*ticket->updates);
    }
  }

  obs::ModbMetrics& metrics = obs::M();
  // One append + (policy permitting) one fsync for the whole group — the
  // amortization group commit exists for. No span has exactly this scope,
  // so it reads the trace clock itself.
  const uint64_t flush_start_us = obs::TraceNowMicros();
  const Status logged = LogLocked(staged_);
  // Clamped like a span's: a core migration may show a tick of TSC skew.
  const uint64_t flush_end_us =
      std::max(obs::TraceNowMicros(), flush_start_us);
  metrics.commit_flush_seconds->Observe(1e-6 *
                                        (flush_end_us - flush_start_us));
  if (!logged.ok()) {
    // Whole-batch fail-stop: the server was already degraded, or the
    // shared append/fsync failed and degraded it. NOTHING in this flush
    // was applied or advanced seq_ — every committer in the group
    // observes kUnavailable.
    fail_all(logged);
    return;
  }
  metrics.commit_flushes->Increment();
  metrics.commit_batch_updates->Observe(static_cast<double>(total_updates));

  for (GroupCommitQueue::Ticket* ticket : batch) {
    ApplyLocked(*ticket->updates, ticket->apply_statuses);
    ticket->result = Status::Ok();
  }
  if (options_.auto_checkpoint &&
      wal_->bytes() >= options_.snapshot.trigger_bytes) {
    // The leader checkpoints before it returns. A failure lands in
    // last_checkpoint_status() and the checkpoint retries as the segment
    // keeps growing.
    (void)CheckpointLocked();
  }
}

StatusOr<QueryId> DurableQueryServer::AddKnn(const std::string& gdist_key,
                                             const Trajectory& query,
                                             size_t k) {
  return AddNext(
      {.is_knn = true, .gdist_key = gdist_key, .query = query, .k = k});
}

StatusOr<QueryId> DurableQueryServer::AddWithin(const std::string& gdist_key,
                                                const Trajectory& query,
                                                double threshold) {
  return AddNext({.is_knn = false,
                 .gdist_key = gdist_key,
                 .query = query,
                 .threshold = threshold});
}

StatusOr<QueryId> DurableQueryServer::AddNext(LoggedQuery query) {
  std::lock_guard<std::mutex> lock(mu_);
  query.id = server_.next_query_id();
  MODB_RETURN_IF_ERROR(RegisterLocked(query, /*journal=*/true));
  return query.id;
}

Status DurableQueryServer::RegisterQuery(const LoggedQuery& query) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(query, /*journal=*/true);
}

Status DurableQueryServer::RegisterLocked(const LoggedQuery& query,
                                          bool journal) {
  if (query.id < server_.next_query_id()) {
    return Status::InvalidArgument(
        "query id " + std::to_string(query.id) + " is below the next id " +
        std::to_string(server_.next_query_id()) + " (ids are never reused)");
  }
  if (query.query.empty() || query.query.dim() != server_.mod().dim()) {
    return Status::InvalidArgument(
        "query trajectory empty or dimension mismatch with wal");
  }
  if (journal) {
    staged_.Clear();
    staged_.AddRegisterQuery(query);
    MODB_RETURN_IF_ERROR(LogLocked(staged_));
  }
  server_.RaiseNextQueryId(query.id);
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(query.query);
  const QueryId id =
      query.is_knn
          ? server_.AddKnn(query.gdist_key, std::move(gdist), query.k)
          : server_.AddWithin(query.gdist_key, std::move(gdist),
                              query.threshold);
  MODB_CHECK_EQ(id, query.id);
  journal_[query.id] = query;
  return Status::Ok();
}

QueryId DurableQueryServer::next_query_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return server_.next_query_id();
}

Status DurableQueryServer::RemoveQuery(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_.count(id) == 0) {
    return Status::NotFound("unknown durable query id " + std::to_string(id));
  }
  staged_.Clear();
  staged_.AddRemoveQuery(id);
  MODB_RETURN_IF_ERROR(LogLocked(staged_));
  MODB_RETURN_IF_ERROR(server_.RemoveQuery(id));
  journal_.erase(id);
  return Status::Ok();
}

std::vector<obs::TopEntry> DurableQueryServer::TopQueries() const {
  // Live queries only: db-top ranks what is registered now.
  std::vector<obs::TopEntry> out = server_.TopQueries();
  std::erase_if(out, [](const obs::TopEntry& entry) { return !entry.live; });
  return out;
}

Status DurableQueryServer::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status DurableQueryServer::FlushLocked() {
  MODB_RETURN_IF_ERROR(CheckWritable());
  const Status synced = wal_->Sync();
  if (!synced.ok()) return Degrade(synced);
  NoteDurableLocked();
  return Status::Ok();
}

Status DurableQueryServer::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status DurableQueryServer::CheckpointLocked() {
  obs::ModbMetrics& metrics = obs::M();
  metrics.checkpoint_attempts->Increment();
  obs::TraceSpan span(obs::SpanName::kCheckpoint, obs::kTraceNoId,
                      server_.now(), seq_);
  // Ordering is what makes every crash window recoverable:
  //   1. sync the active segment — the history up to seq_ is durable;
  //   2. start the segment at seq_ and re-journal live queries plus the
  //      id high-water mark (a crash here recovers from the *previous*
  //      snapshot through both segments, with the re-journaled records
  //      folding in idempotently);
  //   3. write the MOD at seq_ as a snapshot (atomic rename), then prune
  //      — only after the new snapshot is durable do older snapshots and
  //      their segments become garbage. A crash before the rename costs
  //      nothing: the chain still replays from the previous snapshot
  //      through the rotated segments.
  //
  // Failure model: step 1 failing is a WAL durability failure and
  // degrades the server (fail-stop). Steps 2-3 abandon their partial
  // artifacts and leave the previous layout valid, so their failures are
  // retryable — a later Checkpoint picks up where this one left off.
  const Status result = [&]() -> Status {
    MODB_RETURN_IF_ERROR(FlushLocked());
    const uint64_t snap_seq = seq_;
    if (wal_->header().start_seq != snap_seq) {
      const std::string fresh_path = SegmentPath(dir_, snap_seq);
      StatusOr<WalWriter> fresh = WalWriter::Create(
          fresh_path,
          WalSegmentHeader{server_.mod().dim(), snap_seq,
                           server_.mod().last_update_time()},
          options_.wal, env());
      Status rotated = fresh.status();
      if (rotated.ok()) {
        // The segment head, staged whole and written with one append.
        staged_.Clear();
        if (epoch_ > 0) {
          // Sharded log: stamp the epoch low-water mark at the segment
          // head — step 1's fsync just made every epoch <= epoch_ durable
          // here, and the segments that mentioned them are about to
          // become prunable. (Unsharded logs never reach this branch, so
          // their byte layout is unchanged.)
          staged_.AddEpochFloor(epoch_);
        }
        for (const auto& [id, query] : journal_) {
          staged_.AddRegisterQuery(query);
        }
        // Recovery resumes ids past the largest one the log names. When
        // the highest id handed out is no longer live, journal its removal
        // so pruning the segments that registered it cannot bring it back.
        const QueryId last_id = server_.next_query_id() - 1;
        if (last_id >= 0 && journal_.count(last_id) == 0) {
          staged_.AddRemoveQuery(last_id);
        }
        rotated = fresh->AppendBatch(staged_);
        if (rotated.ok()) rotated = fresh->Sync();
        if (rotated.ok()) rotated = env()->SyncDir(dir_);
      }
      if (!rotated.ok()) {
        // Abandon the half-built segment. It MUST be gone before the old
        // segment takes further appends: a stale segment at snap_seq would
        // otherwise overlap the growing old segment and read as a chain
        // inconsistency on recovery. If even the removal fails, the layout
        // can no longer be kept consistent — fail-stop.
        if (fresh.ok()) fresh->Close();
        const Status removed = env()->RemoveFile(fresh_path);
        if (!removed.ok() &&
            removed.code() != StatusCode::kNotFound) {
          return Degrade(removed);
        }
        return rotated;
      }
      wal_ = std::move(fresh).value();
    }
    MODB_RETURN_IF_ERROR(snapshots_.Write(server_.mod(), snap_seq));
    // A missed Prune only leaves stale-but-valid garbage for the next
    // checkpoint.
    return snapshots_.Prune();
  }();
  if (!result.ok()) metrics.checkpoint_failures->Increment();
  checkpoint_status_ = result;
  metrics.checkpoint_seconds->Observe(1e-6 * span.Close());
  return result;
}

Status DurableQueryServer::last_checkpoint_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_status_;
}

uint64_t DurableQueryServer::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_->bytes();
}

std::string DurableQueryServer::wal_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_->path();
}

}  // namespace modb
