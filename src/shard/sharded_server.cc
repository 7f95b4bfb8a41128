#include "shard/sharded_server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/check.h"
#include "durability/recovery.h"
#include "gdist/builtin.h"
#include "obs/modb_metrics.h"
#include "obs/trace.h"
#include "queries/knn.h"

namespace modb {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ShardedServerOptions::threads, with 0 meaning
// min(shards, hardware_concurrency).
size_t PoolWidth(size_t threads, size_t shards) {
  if (threads != 0) return threads;
  const size_t hw = std::thread::hardware_concurrency();
  return std::min(shards, hw == 0 ? 1 : hw);
}

// `status` with its shard named, as every per-shard Open failure reads.
Status InShard(size_t s, const Status& status) {
  return Status(status.code(), ShardSubdir(s) + ": " + status.message());
}

}  // namespace

size_t ShardedQueryServer::ShardOf(ObjectId oid, size_t shards) {
  MODB_CHECK(shards > 0);
  // splitmix64's finalizer: cheap, fixed-width, and scrambles the low
  // bits sequential oids differ in, so consecutive ids spread evenly.
  uint64_t x = static_cast<uint64_t>(oid) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<size_t>(x % shards);
}

ShardedQueryServer::ShardedQueryServer(std::string dir,
                                       ShardManifest manifest, size_t threads)
    : dir_(std::move(dir)),
      manifest_(manifest),
      pool_(PoolWidth(threads, manifest.shards)) {}

StatusOr<std::unique_ptr<ShardedQueryServer>> ShardedQueryServer::Open(
    const std::string& dir, ShardedServerOptions options) {
  Env* env = options.durability.env != nullptr ? options.durability.env
                                               : Env::Default();
  ShardManifest manifest;
  StatusOr<ShardManifest> existing = ReadShardManifest(env, dir);
  if (existing.ok()) {
    manifest = *existing;
    if (options.shards != 0 && options.shards != manifest.shards) {
      return Status::InvalidArgument(
          "shard count mismatch: directory has " +
          std::to_string(manifest.shards) + " shards, caller asked for " +
          std::to_string(options.shards) +
          " (resharding is a migration, not an Open flag)");
    }
  } else if (existing.status().code() == StatusCode::kNotFound) {
    if (options.shards == 0) {
      return Status::NotFound("no sharded database at " + dir);
    }
    manifest.shards = options.shards;
    manifest.dim = options.durability.dim;
    MODB_RETURN_IF_ERROR(WriteShardManifest(env, dir, manifest));
  } else {
    return existing.status();
  }

  std::unique_ptr<ShardedQueryServer> server(
      new ShardedQueryServer(dir, manifest, options.threads));
  // Under allow_degraded_shards a kUnavailable shard (dead disk, EIO —
  // not corrupt) becomes a placeholder and the server opens read-only
  // around the hole; any other failure surfaces, naming its shard.
  const auto tolerated = [&](const Status& status) {
    return options.allow_degraded_shards &&
           status.code() == StatusCode::kUnavailable;
  };
  // Recover every shard once, serially in shard order, with torn-tail
  // repair (each shard reopens its active segment for append). kNotFound
  // is a fresh shard. Failures surface before any shard opens: healing
  // on a partial view could truncate good data. Only a writable reopen
  // heals (a fresh directory has no log; allow_degraded_shards lacks a
  // shard's log and is read-only anyway), and only it records the span.
  const bool heal = existing.ok() && !options.allow_degraded_shards;
  std::optional<obs::TraceSpan> span;
  if (heal) {
    span.emplace(obs::SpanName::kShardRecover, obs::kTraceNoId, kNaN,
                 manifest.shards);
  }
  std::vector<StatusOr<RecoveryResult>> recoveries;
  recoveries.reserve(manifest.shards);
  for (size_t s = 0; s < manifest.shards; ++s) {
    recoveries.push_back(RecoverDatabase(dir + "/" + ShardSubdir(s),
                                         {.repair = true, .env = env}));
    const Status& status = recoveries.back().status();
    if (!status.ok() && status.code() != StatusCode::kNotFound &&
        !tolerated(status)) {
      return InShard(s, status);
    }
  }
  // Heal to the consistent epoch cut BEFORE any shard opens for append,
  // so every shard opens on the same whole-batch prefix.
  if (heal) {
    MODB_RETURN_IF_ERROR(HealEpochCut(dir, env, &recoveries));
    span->Close();
  }
  server->shards_.reserve(manifest.shards);
  size_t healthy = 0;
  for (size_t s = 0; s < manifest.shards; ++s) {
    DurabilityOptions per_shard = options.durability;
    per_shard.dim = manifest.dim;
    // A shard rotating on its own schedule could seal an epoch not yet
    // durable on a sibling (un-rollbackable); only the coordinated
    // Checkpoint below may rotate.
    per_shard.auto_checkpoint = false;
    auto opened = DurableQueryServer::OpenRecovered(
        dir + "/" + ShardSubdir(s), per_shard, std::move(recoveries[s]));
    auto shard = std::make_unique<Shard>();
    if (!opened.ok()) {
      if (!tolerated(opened.status())) return InShard(s, opened.status());
      shard->open_error = opened.status();
      server->read_only_ = true;
    } else {
      shard->db = std::move(*opened);
      server->recovered_ =
          server->recovered_ || shard->db->open_info().recovered;
      server->next_epoch_ =
          std::max(server->next_epoch_, shard->db->epoch() + 1);
      ++healthy;
    }
    server->shards_.push_back(std::move(shard));
  }
  // Every shard failed: there is nothing to merge and no journal to read
  // queries from — this is an outage, not a degraded open.
  if (healthy == 0) return InShard(0, server->shards_[0]->open_error);
  MODB_RETURN_IF_ERROR(server->RebuildQueryStates());
  obs::M().shard_count->Set(static_cast<int64_t>(manifest.shards));
  server->UpdateDegradedGauge();
  return server;
}

Status ShardedQueryServer::HealEpochCut(
    const std::string& dir, Env* env,
    std::vector<StatusOr<RecoveryResult>>* recoveries) {
  // A fresh shard (kNotFound) has no marks and floor 0.
  const size_t shards = recoveries->size();
  const RecoveryResult fresh;
  std::vector<const RecoveryResult*> scans(shards, &fresh);
  for (size_t s = 0; s < shards; ++s) {
    if ((*recoveries)[s].ok()) scans[s] = &*(*recoveries)[s];
  }

  // An aborted epoch was applied nowhere: it neither breaks the cut nor
  // counts as present anywhere.
  std::set<uint64_t> aborted;
  for (const RecoveryResult* scan : scans) {
    aborted.insert(scan->aborted_epochs.begin(), scan->aborted_epochs.end());
  }
  std::vector<std::set<uint64_t>> marked(shards);
  std::map<uint64_t, const std::vector<uint32_t>*> participants;
  for (size_t s = 0; s < shards; ++s) {
    for (const EpochMark& mark : scans[s]->epoch_marks) {
      if (aborted.count(mark.epoch) > 0) continue;
      marked[s].insert(mark.epoch);
      participants.emplace(mark.epoch, &mark.participants);
    }
  }

  // The consistent cut: the largest epoch E* such that no epoch <= E* is
  // broken (present = stamped in the shard's surviving log, or covered by
  // its floor — the all-shard fsync barrier before every seal means a
  // pruned epoch was durable everywhere it mattered). Commits are
  // serialized, so each shard's epochs are a monotone sequence and each
  // shard's crash cut is a prefix cut: everything after the first broken
  // epoch is suspect.
  //
  // Epoch numbers are dense (allocated by one counter), which closes a
  // blind spot the mark scan alone would have: a crash can cut an epoch's
  // frame away on EVERY participant while a later epoch touching other
  // shards survives. No surviving mark names the erased epoch, so it
  // cannot fail the per-participant check — but the numbering gap it
  // leaves is visible. A gap above the seal floor that is not an
  // explicitly aborted epoch is therefore a broken epoch (aborts journal
  // a compensation record on every healthy shard precisely so the two
  // cases can be told apart).
  uint64_t max_floor = 0;
  for (const RecoveryResult* scan : scans) {
    max_floor = std::max(max_floor, scan->epoch_floor);
  }
  uint64_t first_broken = 0;
  uint64_t prev_present = max_floor;
  for (const auto& [epoch, parts] : participants) {
    if (epoch <= prev_present) continue;  // Sealed-durable everywhere.
    bool broken = false;
    for (uint64_t hole = prev_present + 1; hole < epoch; ++hole) {
      if (aborted.count(hole) == 0) {
        first_broken = hole;
        broken = true;
        break;
      }
    }
    if (broken) break;
    for (const uint32_t p : *parts) {
      if (p >= shards) {
        return Status::DataLoss("epoch " + std::to_string(epoch) +
                                " names shard " + std::to_string(p) +
                                " outside the manifest");
      }
      if (epoch > scans[p]->epoch_floor && marked[p].count(epoch) == 0) {
        broken = true;
        break;
      }
    }
    if (broken) {
      first_broken = epoch;
      break;  // participants is ordered: the first broken epoch is the cut.
    }
    prev_present = epoch;
  }
  if (first_broken == 0) return Status::Ok();  // Nothing to heal.
  const uint64_t cut = first_broken - 1;

  // Truncate every shard that ran ahead at its first mark past the cut
  // (its marks are epoch-ascending, so everything after that frame is
  // also past the cut), and recover it again from the truncated log.
  for (size_t s = 0; s < shards; ++s) {
    const EpochMark* roll_at = nullptr;
    for (const EpochMark& mark : scans[s]->epoch_marks) {
      if (aborted.count(mark.epoch) > 0) continue;
      if (roll_at == nullptr) {
        if (mark.epoch > cut) roll_at = &mark;
        continue;
      }
      if (mark.epoch <= cut) {
        // Epoch order per shard is monotone by construction; a smaller
        // epoch after the rollback point means the log is not the log a
        // sharded server wrote.
        return Status::DataLoss(ShardSubdir(s) + ": epoch " +
                                std::to_string(mark.epoch) +
                                " logged after epoch " +
                                std::to_string(roll_at->epoch));
      }
    }
    if (roll_at == nullptr) continue;
    if (!roll_at->in_active_segment) {
      // The epoch to roll back is sealed into a pruned-or-sealed segment:
      // the checkpoint barrier should have made this impossible, so the
      // directory was mutated outside the sharded protocol. Refuse rather
      // than guess.
      return Status::DataLoss(
          ShardSubdir(s) + ": epoch " + std::to_string(roll_at->epoch) +
          " must roll back to the cross-shard cut (epoch " +
          std::to_string(cut) + ") but is sealed outside the active segment");
    }
    MODB_RETURN_IF_ERROR(
        env->TruncateFile(scans[s]->active_wal_path, roll_at->offset));
    obs::M().shard_epoch_rollbacks->Increment();
    StatusOr<RecoveryResult> again = RecoverDatabase(
        dir + "/" + ShardSubdir(s), {.repair = true, .env = env});
    if (!again.ok()) return InShard(s, again.status());
    // The rollback is not a torn tail: keep what the first recovery
    // repaired.
    RecoveryResult& first = *(*recoveries)[s];
    again->truncated_tail = first.truncated_tail;
    again->truncated_bytes = first.truncated_bytes;
    again->truncated_detail = std::move(first.truncated_detail);
    (*recoveries)[s] = std::move(again);
  }
  return Status::Ok();
}

Status ShardedQueryServer::RebuildQueryStates() {
  // Shared-nothing recovery invariant: registration fans out to every
  // shard in one order, so all S journals must list the same queries. A
  // shard whose journal diverged (a torn tail that ate a registration the
  // others kept) would silently answer with a missing kernel — refuse.
  // Placeholder shards (allow_degraded_shards) have no journal to check;
  // the first healthy shard is the reference.
  size_t ref = shards_.size();
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->db != nullptr) {
      ref = s;
      break;
    }
  }
  MODB_CHECK(ref < shards_.size()) << "no healthy shard";
  const std::map<QueryId, LoggedQuery>& reference =
      shards_[ref]->db->live_queries();
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s == ref || shards_[s]->db == nullptr) continue;
    const std::map<QueryId, LoggedQuery>& other =
        shards_[s]->db->live_queries();
    if (other.size() != reference.size()) {
      return Status::DataLoss(
          ShardSubdir(s) + " journals " + std::to_string(other.size()) +
          " queries, " + ShardSubdir(ref) + " journals " +
          std::to_string(reference.size()));
    }
    auto it = other.begin();
    for (const auto& [id, logged] : reference) {
      if (it->first != id || it->second.is_knn != logged.is_knn ||
          it->second.gdist_key != logged.gdist_key ||
          it->second.k != logged.k ||
          it->second.threshold != logged.threshold) {
        return Status::DataLoss(ShardSubdir(s) + " query journal disagrees " +
                                "with " + ShardSubdir(ref) + " at id " +
                                std::to_string(id));
      }
      ++it;
    }
  }
  InstallQueries(reference);
  return Status::Ok();
}

void ShardedQueryServer::InstallQueries(
    const std::map<QueryId, LoggedQuery>& added) {
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (const auto& [id, logged] : added) {
      auto state = std::make_unique<QueryState>();
      state->logged = logged;
      state->cells.reserve(shards_.size());
      for (size_t s = 0; s < shards_.size(); ++s) {
        state->cells.push_back(std::make_unique<AnswerCell>());
      }
      queries_.emplace(id, std::move(state));
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    PublishShardLocked(s);
  }
}

void ShardedQueryServer::PublishShardLocked(size_t s) {
  // A placeholder shard publishes nothing; its cells stay empty and
  // AnswerPartial reports it degraded.
  if (shards_[s]->db == nullptr) return;
  DurableQueryServer& db = *shards_[s]->db;
  const QueryServer& server = db.server();
  const double t = server.now();
  std::lock_guard<std::mutex> lock(queries_mu_);
  for (const auto& [id, state] : queries_) {
    const std::set<ObjectId>& answer = server.Answer(id);
    // Rank by the shard's sweep: its group's g-distance, which the first
    // query under the key fixed, not this query's own. Each member is a
    // resident, so its curve gives the value with one slot lookup.
    const SweepState& sweep = server.QuerySweep(id);
    std::vector<RankedCandidate> entries;
    entries.reserve(answer.size());
    for (ObjectId oid : answer) {
      entries.push_back(RankedCandidate{oid, sweep.CurveValue(oid, t)});
    }
    std::sort(entries.begin(), entries.end());
    state->cells[s]->Publish(t, entries);
    obs::M().shard_publishes->Increment();
  }
}

Status ShardedQueryServer::Commit(const std::vector<Update>& updates,
                                  std::vector<Status>* apply_statuses) {
  if (updates.empty()) return Status::Ok();
  // The whole batch succeeds or fails together: refusals fill every
  // apply-status slot with the batch verdict.
  auto fail_all = [&updates, apply_statuses](Status why) {
    if (apply_statuses != nullptr) {
      apply_statuses->assign(updates.size(), why);
    }
    return why;
  };
  // Check every update's shape against the manifest dimension (every
  // shard's segment dimension) BEFORE an epoch is allocated or anything is
  // logged: a refusal must not burn an epoch (or worse, log the batch on
  // some shards and refuse it on others).
  for (const Update& update : updates) {
    const Status valid = CheckUpdateDim(update, manifest_.dim);
    if (!valid.ok()) return fail_all(valid);
  }
  const size_t num_shards = shards_.size();
  std::vector<std::vector<Update>> sub_batches(num_shards);
  std::vector<std::vector<size_t>> origins(num_shards);
  for (size_t i = 0; i < updates.size(); ++i) {
    const size_t s = ShardOf(updates[i].oid, num_shards);
    sub_batches[s].push_back(updates[i]);
    origins[s].push_back(i);
  }
  obs::M().shard_updates->Increment(updates.size());
  std::vector<uint32_t> participants;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!sub_batches[s].empty()) {
      participants.push_back(static_cast<uint32_t>(s));
    }
  }

  // One epoch in flight at a time: it is fully logged (or aborted) on
  // every participant before the next is handed out, so per-shard epoch
  // order is monotone and cut-healing only ever rolls back the last
  // unacknowledged commit.
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  if (read_only_) {
    return fail_all(Status::Unavailable(
        "sharded server is read-only (a shard failed to open)"));
  }
  // Degraded-shard pre-check: fail before allocating an epoch, so commits
  // routed entirely to healthy shards keep getting epochs.
  for (const uint32_t p : participants) {
    if (shards_[p]->db->degraded()) {
      return fail_all(Status::Unavailable(
          ShardSubdir(p) + ": " +
          shards_[p]->db->degraded_cause().ToString()));
    }
  }
  const uint64_t epoch = next_epoch_++;

  // Phase 1: durably log the epoch-stamped sub-batch on every participant
  // (in parallel). Nothing is applied yet — a crash or failure here leaves
  // live state untouched on every shard.
  std::vector<Status> log_status(num_shards);
  pool_.Run(participants.size(), [&](size_t i) {
    const uint32_t p = participants[i];
    obs::TraceSpan span(obs::SpanName::kShardDispatch,
                        static_cast<int64_t>(p), kNaN, sub_batches[p].size());
    obs::M().shard_dispatches->Increment();
    std::lock_guard<std::mutex> lock(shards_[p]->mu);
    log_status[p] =
        shards_[p]->db->LogShardBatch(epoch, participants, sub_batches[p]);
    obs::M().shard_dispatch_seconds->Observe(1e-6 * span.Close());
  });
  const auto refused =
      std::find_if(participants.begin(), participants.end(),
                   [&log_status](uint32_t p) { return !log_status[p].ok(); });
  if (refused != participants.end()) {
    // The epoch is torn: logged on some participants, refused on another
    // (which is now degraded). Journal a compensation record on EVERY
    // shard that can still append — participants that did log it (so
    // replay and the cut-healer treat the epoch as never having existed)
    // AND healthy bystanders. The bystander record matters when every
    // participant refused or lost the frame: without any trace, this
    // epoch's numbering gap is indistinguishable from an epoch whose
    // frames a crash tore away on all participants, and the cut-healer
    // would roll later healthy commits back behind it.
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!log_status[s].ok()) continue;  // The refusing participant.
      if (shards_[s]->db == nullptr || shards_[s]->db->degraded()) continue;
      std::lock_guard<std::mutex> lock(shards_[s]->mu);
      shards_[s]->db->AbortShardBatch(epoch);
    }
    UpdateDegradedGauge();
    return fail_all(Status::Unavailable(ShardSubdir(*refused) + ": " +
                                        log_status[*refused].message()));
  }
  obs::M().shard_epoch_durable->Increment();

  // Phase 2: apply everywhere. Every participant's append succeeded, so
  // the batch is already durable as a unit; apply cannot fail as a whole
  // (per-update semantic refusals land in apply_statuses, exactly as they
  // would on replay).
  std::vector<std::vector<Status>> shard_applies(num_shards);
  pool_.Run(participants.size(), [&](size_t i) {
    const uint32_t p = participants[i];
    std::lock_guard<std::mutex> lock(shards_[p]->mu);
    shards_[p]->db->ApplyLoggedBatch(sub_batches[p], &shard_applies[p]);
    PublishShardLocked(p);
  });

  if (apply_statuses != nullptr) {
    apply_statuses->assign(updates.size(), Status::Ok());
    for (const uint32_t p : participants) {
      for (size_t j = 0; j < origins[p].size(); ++j) {
        (*apply_statuses)[origins[p][j]] = shard_applies[p][j];
      }
    }
  }
  return Status::Ok();
}

Status ShardedQueryServer::ApplyUpdate(const Update& update) {
  std::vector<Status> statuses;
  MODB_RETURN_IF_ERROR(Commit({update}, &statuses));
  return statuses.empty() ? Status::Ok() : statuses[0];
}

StatusOr<QueryId> ShardedQueryServer::AddFanOut(LoggedQuery query) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  // Registration frames must not interleave between an in-flight epoch's
  // per-shard appends: if that epoch aborts or is healed away, truncation
  // would eat the registration on some shards but not others.
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  if (read_only_) {
    return Status::Unavailable(
        "sharded server is read-only (a shard failed to open)");
  }
  // One id on every shard: it keys the per-shard answer cells and is the
  // id callers see. Shards may disagree on their next id (a fan-out that
  // failed partway left its id consumed only on the shards it reached),
  // so take the largest; every shard accepts any id at or above its own.
  query.id = 0;
  for (const auto& shard : shards_) {
    query.id = std::max(query.id, shard->db->next_query_id());
  }
  size_t registered = 0;
  Status failure;
  for (; registered < shards_.size(); ++registered) {
    std::lock_guard<std::mutex> lock(shards_[registered]->mu);
    failure = shards_[registered]->db->RegisterQuery(query);
    if (!failure.ok()) break;
  }
  if (!failure.ok()) {
    // Best-effort rollback so a partially registered query never serves.
    for (size_t s = 0; s < registered; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s]->mu);
      shards_[s]->db->RemoveQuery(query.id);
    }
    return failure;
  }

  InstallQueries({{query.id, query}});
  return query.id;
}

StatusOr<QueryId> ShardedQueryServer::AddKnn(const std::string& gdist_key,
                                             const Trajectory& query,
                                             size_t k) {
  return AddFanOut(
      {.is_knn = true, .gdist_key = gdist_key, .query = query, .k = k});
}

StatusOr<QueryId> ShardedQueryServer::AddWithin(const std::string& gdist_key,
                                                const Trajectory& query,
                                                double threshold) {
  return AddFanOut({.is_knn = false,
                 .gdist_key = gdist_key,
                 .query = query,
                 .threshold = threshold});
}

Status ShardedQueryServer::RemoveQuery(QueryId id) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  if (read_only_) {
    return Status::Unavailable(
        "sharded server is read-only (a shard failed to open)");
  }
  // Erase from queries_ before touching any shard DB: concurrent
  // Commit/AdvanceTo publishes iterate queries_ and ask each shard for
  // Answer(id), which must not run against a shard that already
  // removed the query.
  {
    std::lock_guard<std::mutex> queries_lock(queries_mu_);
    queries_.erase(id);
  }
  Status first;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> shard_lock(shards_[s]->mu);
    const Status removed = shards_[s]->db->RemoveQuery(id);
    if (!removed.ok() && first.ok()) first = removed;
  }
  return first;
}

void ShardedQueryServer::AdvanceTo(double t) {
  pool_.Run(shards_.size(), [this, t](size_t s) {
    if (shards_[s]->db == nullptr) return;
    obs::TraceSpan span(obs::SpanName::kShardDispatch,
                        static_cast<int64_t>(s), t, 0);
    obs::M().shard_dispatches->Increment();
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    shards_[s]->db->AdvanceTo(t);
    PublishShardLocked(s);
    obs::M().shard_dispatch_seconds->Observe(1e-6 * span.Close());
  });
}

std::set<ObjectId> ShardedQueryServer::Answer(QueryId id) const {
  obs::TraceSpan span(obs::SpanName::kShardMerge, id, kNaN, shards_.size());
  obs::M().shard_merges->Increment();
  const auto it = queries_.find(id);
  MODB_CHECK(it != queries_.end()) << "unknown query id " << id;
  const QueryState& state = *it->second;
  double time = 0.0;
  std::set<ObjectId> merged;
  if (state.logged.is_knn) {
    std::vector<std::vector<RankedCandidate>> lists(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      state.cells[s]->Read(&time, &lists[s]);
    }
    merged = MergeKnnCandidates(lists, state.logged.k);
  } else {
    std::vector<RankedCandidate> entries;
    std::vector<std::set<ObjectId>> sets(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      state.cells[s]->Read(&time, &entries);
      for (const RankedCandidate& entry : entries) sets[s].insert(entry.oid);
    }
    merged = MergeUnion(sets);
  }
  obs::M().shard_merge_seconds->Observe(1e-6 * span.Close());
  return merged;
}

std::set<ObjectId> ShardedQueryServer::SnapshotKnnMerged(
    const Trajectory& query, size_t k, double t) const {
  obs::TraceSpan span(obs::SpanName::kShardMerge, obs::kTraceNoId, t,
                      shards_.size());
  obs::M().shard_merges->Increment();
  const SquaredEuclideanGDistance gdist(query);
  std::vector<std::vector<RankedCandidate>> lists(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->db == nullptr) continue;
    lists[s] = SnapshotKnnRanked(shards_[s]->db->server().mod(), gdist, k, t);
  }
  return MergeKnnCandidates(lists, k);
}

std::set<ObjectId> ShardedQueryServer::FastestArrivalAtMerged(
    const Vec& target, double t) const {
  obs::TraceSpan span(obs::SpanName::kShardMerge, obs::kTraceNoId, t,
                      shards_.size());
  obs::M().shard_merges->Increment();
  const InterceptionTimeSquaredGDistance gdist(target);
  std::vector<std::vector<RankedCandidate>> lists(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->db == nullptr) continue;
    lists[s] =
        SnapshotKnnRanked(shards_[s]->db->server().mod(), gdist, /*k=*/1, t);
  }
  return MergeMinCandidates(lists);
}

AnswerTimeline ShardedQueryServer::InsideRegionMerged(
    const ConvexPolygon& region, TimeInterval interval) const {
  obs::TraceSpan span(obs::SpanName::kShardMerge, obs::kTraceNoId, interval.lo,
                      shards_.size());
  obs::M().shard_merges->Increment();
  std::vector<AnswerTimeline> parts;
  parts.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->db == nullptr) continue;
    parts.push_back(InsideRegionTimeline(shards_[s]->db->server().mod(),
                                         region, interval));
  }
  std::vector<const AnswerTimeline*> pointers;
  pointers.reserve(parts.size());
  for (const AnswerTimeline& part : parts) pointers.push_back(&part);
  return MergeTimelinesUnion(pointers);
}

PartialAnswer ShardedQueryServer::AnswerPartial(QueryId id) const {
  PartialAnswer partial;
  partial.members = Answer(id);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->db == nullptr || shards_[s]->db->degraded()) {
      partial.degraded_shards.push_back(s);
    }
  }
  return partial;
}

obs::QueryCostReport ShardedQueryServer::ExplainQuery(QueryId id) const {
  obs::QueryCostReport merged;
  merged.query_id = id;
  merged.shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    obs::ShardCostBreakdown breakdown;
    breakdown.shard = s;
    if (shards_[s]->db == nullptr) {
      merged.shards.push_back(breakdown);  // found == false: unavailable.
      continue;
    }
    const obs::QueryCostReport part = shards_[s]->db->ExplainQuery(id);
    breakdown.found = part.found;
    breakdown.answer_size = part.answer_size;
    breakdown.own = part.own;
    breakdown.group = part.group;
    merged.shards.push_back(breakdown);
    if (!part.found) continue;
    if (!merged.found) {
      // Identity fields are identical on every shard (registration fans
      // out the same LoggedQuery); take them from the first that has it.
      merged.found = true;
      merged.live = part.live;
      merged.is_knn = part.is_knn;
      merged.param = part.param;
      merged.group_key = part.group_key;
      merged.group_live_queries = part.group_live_queries;
    }
    merged.own += part.own;
    merged.group += part.group;
    if (part.last_change_trace != 0) {
      merged.last_change_trace = part.last_change_trace;
    }
  }
  // The per-shard answer sizes don't sum to the merged answer (a kNN
  // merge keeps k of the S*k candidates), so report the real thing.
  if (merged.live && queries_.count(id) > 0) {
    merged.answer_size = Answer(id).size();
  }
  return merged;
}

std::vector<obs::TopEntry> ShardedQueryServer::TopQueries() const {
  std::map<int64_t, obs::TopEntry> by_id;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->db == nullptr) continue;
    for (const obs::TopEntry& part : shards_[s]->db->TopQueries()) {
      auto [it, inserted] = by_id.emplace(part.id, part);
      if (inserted) continue;
      it->second.cost_score += part.cost_score;
      it->second.churn_score += part.churn_score;
      it->second.own += part.own;
    }
  }
  std::vector<obs::TopEntry> merged;
  merged.reserve(by_id.size());
  for (auto& [id, entry] : by_id) {
    if (entry.live && queries_.count(id) > 0) {
      entry.answer_size = Answer(id).size();
    }
    merged.push_back(std::move(entry));
  }
  return merged;
}

Status ShardedQueryServer::Flush() {
  // Every shard flushes even after a failure: the caller learns the first
  // error in shard order, the healthy shards still get their fsync.
  std::vector<Status> flushed(shards_.size());
  pool_.Run(shards_.size(), [this, &flushed](size_t s) {
    if (shards_[s]->db == nullptr) return;
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    flushed[s] = shards_[s]->db->Flush();
  });
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!flushed[s].ok()) {
      UpdateDegradedGauge();
      return Status(flushed[s].code(),
                    ShardSubdir(s) + ": " + flushed[s].message());
    }
  }
  return Status::Ok();
}

Status ShardedQueryServer::Checkpoint() {
  // Quiesce commits for the whole barrier + rotation: a commit landing
  // between a shard's flush and its rotation could put a not-yet-
  // everywhere-durable epoch into the sealed segment.
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  if (read_only_) {
    return Status::Unavailable(
        "sharded server is read-only (a shard failed to open)");
  }
  // The epoch-durability barrier: fsync EVERY shard, and if ANY flush
  // fails, rotate NOTHING. Sealed segments may only contain epochs that
  // are durable on all participants, because cut-healing can only
  // truncate the active segment.
  MODB_RETURN_IF_ERROR(Flush());
  // Rotate each shard, attempting every shard before reporting the first
  // error, with ONE in-place retry per shard: checkpoint failures are
  // retryable by design (snapshot tmp-file I/O, not WAL state), so a
  // transient error on one shard should neither abort the fan-out nor
  // degrade the server.
  Status first;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    Status checkpointed = shards_[s]->db->Checkpoint();
    if (!checkpointed.ok() && !shards_[s]->db->degraded()) {
      checkpointed = shards_[s]->db->Checkpoint();
    }
    if (!checkpointed.ok() && first.ok()) {
      first = Status(checkpointed.code(),
                     ShardSubdir(s) + ": " + checkpointed.message());
    }
  }
  if (!first.ok()) UpdateDegradedGauge();
  return first;
}

std::vector<ShardHealth> ShardedQueryServer::Health() const {
  std::vector<ShardHealth> report;
  report.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardHealth health;
    health.shard = s;
    if (shards_[s]->db == nullptr) {
      health.degraded = true;
      health.cause = shards_[s]->open_error;
    } else {
      health.degraded = shards_[s]->db->degraded();
      health.cause = shards_[s]->db->degraded_cause();
      health.durable_epoch = shards_[s]->db->durable_epoch();
      health.durable_seq = shards_[s]->db->durable_seq();
    }
    report.push_back(std::move(health));
  }
  return report;
}

bool ShardedQueryServer::degraded() const {
  for (const auto& shard : shards_) {
    if (shard->db == nullptr || shard->db->degraded()) return true;
  }
  return false;
}

uint64_t ShardedQueryServer::seq() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->db != nullptr) total += shard->db->seq();
  }
  return total;
}

double ShardedQueryServer::now() const {
  double t = AnyHealthyShard().server().now();
  for (const auto& shard : shards_) {
    if (shard->db != nullptr) t = std::max(t, shard->db->server().now());
  }
  return t;
}

const std::map<QueryId, LoggedQuery>& ShardedQueryServer::live_queries()
    const {
  return AnyHealthyShard().live_queries();
}

void ShardedQueryServer::UpdateDegradedGauge() const {
  int64_t degraded_shards = 0;
  for (const auto& shard : shards_) {
    if (shard->db == nullptr || shard->db->degraded()) ++degraded_shards;
  }
  obs::M().shard_degraded->Set(degraded_shards);
}

const DurableQueryServer& ShardedQueryServer::AnyHealthyShard() const {
  for (const auto& shard : shards_) {
    if (shard->db != nullptr) return *shard->db;
  }
  MODB_CHECK(false) << "no healthy shard";  // Open() guarantees one.
  __builtin_unreachable();
}

}  // namespace modb
