#include "verify/fault.h"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "verify/fault_env.h"
#include "verify/lockstep.h"

namespace fs = std::filesystem;

namespace modb {
namespace {

// Same salt as differential.cc / crash.cc.
constexpr uint64_t kProbeSeedSalt = 0xBF58476D1CE4E5B9ull;

constexpr size_t kMaxFailures = 8;

// The first half of the script is committed in batches of this many
// updates, so the matrix exercises the group-commit path (and, sharded,
// multi-update cross-shard epochs): a fault inside a batched append/fsync
// must fail the WHOLE batch (seq never lands inside one), and power-loss
// recovery must land exactly on a batch boundary.
constexpr size_t kScriptBatch = 3;

constexpr FaultKind kAllKinds[] = {FaultKind::kEio, FaultKind::kEnospc,
                                   FaultKind::kShortWrite,
                                   FaultKind::kSyncFail};

// One execution of the scripted workload, stopped at the first surfaced
// error.
template <typename Server>
struct ScriptState {
  std::unique_ptr<Server> db;  // Null only when Open failed.
  Status error;       // OK: the script ran to completion.
  std::string step;   // Which step surfaced `error`.
  size_t applied = 0;  // Updates successfully applied.
  bool checkpoint_failed = false;  // `error` came from explicit Checkpoint.
  // Per-update statuses of the failed Commit (step == "commit"): the
  // whole-batch contract says every one must be the same kUnavailable.
  std::vector<Status> commit_statuses;
};

DurabilityOptions ScriptDurabilityOptions(Env* env) {
  DurabilityOptions options;
  options.dim = 2;
  options.initial_time = 0.0;
  // The script checkpoints explicitly; every record is fsynced so the
  // synced prefix (what power loss preserves) advances record by record.
  // A sharded server hands the one env to every shard, so the fault plan
  // counts operations machine-wide.
  options.auto_checkpoint = false;
  options.wal.sync = SyncPolicy::kEveryRecord;
  options.env = env;
  return options;
}

template <typename Server>
ScriptState<Server> RunScript(const std::string& dir, Env* env,
                              const std::vector<Update>& updates,
                              const Trajectory& query,
                              const FaultOptions& options) {
  ScriptState<Server> state;
  StatusOr<std::unique_ptr<Server>> opened =
      OpenLane<Server>(dir, options.shards, ScriptDurabilityOptions(env));
  if (!opened.ok()) {
    state.error = opened.status();
    state.step = "open";
    return state;
  }
  state.db = std::move(opened).value();
  const StatusOr<QueryId> knn = state.db->AddKnn("fault", query, options.k);
  if (!knn.ok()) {
    state.error = knn.status();
    state.step = "add-knn";
    return state;
  }
  const StatusOr<QueryId> within =
      state.db->AddWithin("fault", query, options.within_threshold);
  if (!within.ok()) {
    state.error = within.status();
    state.step = "add-within";
    return state;
  }
  // First half: batched commits through the group-commit path. The last
  // batch may be partial, so `half` itself is always a batch boundary.
  const size_t half = updates.size() / 2;
  for (size_t i = 0; i < half; i += kScriptBatch) {
    const size_t n = std::min(kScriptBatch, half - i);
    const std::vector<Update> batch(
        updates.begin() + static_cast<ptrdiff_t>(i),
        updates.begin() + static_cast<ptrdiff_t>(i + n));
    std::vector<Status> statuses;
    const Status committed = state.db->Commit(batch, &statuses);
    if (!committed.ok()) {
      state.error = committed;
      state.step = "commit";
      state.commit_statuses = std::move(statuses);
      return state;
    }
    state.applied += n;
  }
  const Status checkpointed = state.db->Checkpoint();
  if (!checkpointed.ok()) {
    state.error = checkpointed;
    state.step = "checkpoint";
    state.checkpoint_failed = true;
    return state;
  }
  for (size_t i = half; i < updates.size(); ++i) {
    const Status applied = state.db->ApplyUpdate(updates[i]);
    if (!applied.ok()) {
      state.error = applied;
      state.step = "apply";
      return state;
    }
    ++state.applied;
  }
  const Status flushed = state.db->Flush();
  if (!flushed.ok()) {
    state.error = flushed;
    state.step = "flush";
    return state;
  }
  return state;
}

// Applies the remaining updates and the final flush after a retried
// checkpoint succeeded.
template <typename Server>
Status FinishScript(ScriptState<Server>& state,
                    const std::vector<Update>& updates) {
  for (size_t i = state.applied; i < updates.size(); ++i) {
    MODB_RETURN_IF_ERROR(state.db->ApplyUpdate(updates[i]));
    ++state.applied;
  }
  return state.db->Flush();
}

void ExpectUnavailable(const Status& status, const char* what,
                       const FailFn& fail) {
  if (status.code() != StatusCode::kUnavailable) {
    fail(0.0, std::string(what) +
                  " while degraded did not return kUnavailable: " +
                  status.ToString());
  }
}

// A degraded plain server refuses every mutation.
void CheckDegraded(DurableQueryServer& db, const std::vector<Update>& updates,
                   size_t applied, size_t /*failures_before*/,
                   FaultResult& /*result*/, std::vector<Update>* /*extras*/,
                   const FailFn& fail) {
  if (db.degraded_cause().ok()) {
    fail(0.0, "degraded server reports an OK cause");
  }
  const Update& next = updates[std::min(applied, updates.size() - 1)];
  ExpectUnavailable(db.ApplyUpdate(next), "ApplyUpdate", fail);
  ExpectUnavailable(db.Commit({next}), "Commit", fail);
}

// The first oid >= `from` that the hash partition routes to a shard whose
// `degraded` flag equals `want` (a fresh oid, so committing it never
// collides with workload objects).
ObjectId FindRoutedOid(ObjectId from, const std::vector<bool>& degraded,
                       bool want) {
  ObjectId oid = from;
  while (degraded[ShardedQueryServer::ShardOf(oid, degraded.size())] != want) {
    ++oid;
  }
  return oid;
}

// A degraded sharded server isolates the fault: Health() names the
// degraded shards, commits touching them refuse, and commits routed
// entirely to healthy shards keep succeeding (appended to `extras`).
void CheckDegraded(ShardedQueryServer& db, const std::vector<Update>& updates,
                   size_t applied, size_t failures_before, FaultResult& result,
                   std::vector<Update>* extras, const FailFn& fail) {
  std::vector<bool> degraded(db.shard_count(), false);
  std::vector<size_t> degraded_set;
  for (const ShardHealth& health : db.Health()) {
    if (!health.degraded) continue;
    degraded[health.shard] = true;
    degraded_set.push_back(health.shard);
    if (health.cause.ok()) {
      fail(0.0, "degraded shard " + std::to_string(health.shard) +
                    " reports an OK cause");
    }
  }
  if (degraded_set.empty()) {
    fail(0.0, "server degraded() but Health() lists no degraded shard");
    return;
  }
  const double now = applied > 0 ? updates[applied - 1].time : 0.0;
  const bool any_healthy = degraded_set.size() < db.shard_count();
  // A commit routed to a degraded shard — alone or mixed with a
  // healthy-shard update — refuses and applies NOTHING.
  const Update bad = Update::NewObject(FindRoutedOid(2'000'000, degraded, true),
                                       now, Vec{1.0, 1.0}, Vec{0.0, 0.0});
  ExpectUnavailable(db.ApplyUpdate(bad), "degraded-routed commit", fail);
  if (any_healthy) {
    const Update mixed_ok =
        Update::NewObject(FindRoutedOid(3'000'000, degraded, false), now,
                          Vec{2.0, 2.0}, Vec{0.0, 0.0});
    ExpectUnavailable(db.Commit({bad, mixed_ok}), "mixed-batch commit", fail);
  }
  // Partial reads name exactly the degraded set.
  for (const auto& [id, logged] : db.live_queries()) {
    const PartialAnswer partial = db.AnswerPartial(id);
    if (partial.degraded_shards != degraded_set) {
      fail(0.0, "AnswerPartial(" + std::to_string(id) + ") reports " +
                    std::to_string(partial.degraded_shards.size()) +
                    " degraded shard(s), Health() reports " +
                    std::to_string(degraded_set.size()));
    }
  }
  // Healthy-shard liveness — per-shard isolation, the point of the
  // subsystem.
  if (any_healthy && failures_before == result.failures.size()) {
    const Update extra =
        Update::NewObject(FindRoutedOid(4'000'000, degraded, false), now,
                          Vec{3.0, 3.0}, Vec{0.0, 0.0});
    const Status lively = db.Commit({extra});
    if (!lively.ok()) {
      fail(0.0, "healthy-shard commit refused while a sibling is degraded: " +
                    lively.ToString());
    } else {
      ++result.liveness_commits;
      extras->push_back(extra);
    }
  }
}

template <typename Server>
void RunMatrix(const FaultOptions& options, FaultResult& result) {
  const std::vector<Update> updates = BuildFlatUpdates(
      FlatWorkloadOptions{options.seed, options.num_objects,
                          options.num_updates, options.box, options.speed_max,
                          options.mean_gap});
  const size_t half = updates.size() / 2;

  // Verifies `db` (holding exactly `replayed`) against a fresh in-memory
  // reference, then resumes `resume` in lockstep.
  const auto verify = [&](Server& db, const std::vector<Update>& replayed,
                          const std::vector<Update>& resume,
                          const Trajectory& query, bool reregister,
                          Rng& probe_rng, const FailFn& fail) {
    const LockstepStats stats = ResumeLockstep(
        db, replayed, resume,
        LockstepOptions{"fault", query, options.k, options.within_threshold,
                        options.mean_gap, options.audit, reregister},
        probe_rng, nullptr, fail);
    result.probes += stats.probes;
    result.audits += stats.audits;
  };

  // The reference (count-only) run: learn the workload's op count and
  // anchor the expected final state.
  {
    Rng probe_rng(options.seed ^ kProbeSeedSalt);
    const Trajectory query =
        MakeProbeQuery(probe_rng, options.box, options.speed_max);
    const FailFn fail = [&result](double time, std::string what) {
      result.failures.push_back(
          FuzzFailure{"reference run: " + std::move(what), time});
    };
    FaultInjectionEnv env;
    env.SetPlan(FaultPlan{0, FaultKind::kEio});
    const std::string ref_dir = options.dir + "/ref";
    std::error_code ec;
    fs::remove_all(ref_dir, ec);
    ScriptState<Server> state =
        RunScript<Server>(ref_dir, &env, updates, query, options);
    if (!state.error.ok()) {
      fail(0.0, "script failed with no fault injected (step " + state.step +
                    "): " + state.error.ToString());
      return;
    }
    result.total_ops = env.ops_seen();
    verify(*state.db, updates, {}, query, /*reregister=*/false, probe_rng,
           fail);
    state.db.reset();
    fs::remove_all(ref_dir, ec);
    if (!result.ok()) return;
  }

  const uint64_t stride =
      (options.max_faults > 0 && result.total_ops > options.max_faults)
          ? (result.total_ops + options.max_faults - 1) / options.max_faults
          : 1;

  for (uint64_t op = 1; op <= result.total_ops; op += stride) {
    for (const FaultKind kind : kAllKinds) {
      if (result.failures.size() >= kMaxFailures) return;
      const std::string tag = "op " + std::to_string(op) + "/" +
                              std::to_string(result.total_ops) + " " +
                              FaultKindName(kind);
      const FailFn fail = [&result, &tag](double time, std::string what) {
        if (result.failures.size() < kMaxFailures) {
          result.failures.push_back(
              FuzzFailure{tag + ": " + std::move(what), time});
        }
      };
      const size_t failures_before = result.failures.size();
      const std::string run_dir =
          options.dir + "/op" + std::to_string(op) + "-" + FaultKindName(kind);
      std::error_code ec;
      fs::remove_all(run_dir, ec);

      Rng probe_rng(options.seed ^ kProbeSeedSalt);
      const Trajectory query =
          MakeProbeQuery(probe_rng, options.box, options.speed_max);
      FaultInjectionEnv env;
      env.SetPlan(FaultPlan{op, kind});
      ScriptState<Server> state =
          RunScript<Server>(run_dir, &env, updates, query, options);
      ++result.runs;
      if (env.injected()) ++result.injected;
      // Liveness commits to healthy shards while a sibling was degraded;
      // they ride along into the power-loss verdict.
      std::vector<Update> extras;

      if (state.error.ok()) {
        // Clean completion: the fault was inapplicable here or absorbed by
        // design. Either way the database must be exactly the reference.
        if (state.db->seq() != updates.size()) {
          fail(0.0, "clean run applied " + std::to_string(state.db->seq()) +
                        " of " + std::to_string(updates.size()) + " updates");
        } else {
          verify(*state.db, updates, {}, query, /*reregister=*/false,
                 probe_rng, fail);
        }
      } else {
        ++result.surfaced;
        // Every surfaced failure must be the documented kUnavailable —
        // anything else (a stray kFailedPrecondition, say) means a layer
        // wrote past a failure or mislabeled one.
        if (state.error.code() != StatusCode::kUnavailable) {
          fail(0.0, "surfaced error from step " + state.step +
                        " is not kUnavailable: " + state.error.ToString());
        }
        if (state.db != nullptr && !state.db->degraded()) {
          // A non-degrading surfaced error is only legal from a retryable
          // Checkpoint; prove the retry by running the same call again
          // fault-free and finishing the script.
          if (!state.checkpoint_failed) {
            fail(0.0, "non-degrading error surfaced outside Checkpoint (step " +
                          state.step + "): " + state.error.ToString());
          } else {
            const Status retried = state.db->Checkpoint();
            if (!retried.ok()) {
              fail(0.0,
                   "Checkpoint retry after '" + state.error.ToString() +
                       "' failed: " + retried.ToString());
            } else {
              ++result.checkpoint_retries;
              const Status finished = FinishScript(state, updates);
              if (!finished.ok()) {
                fail(0.0, "finishing after checkpoint retry: " +
                              finished.ToString());
              } else {
                verify(*state.db, updates, {}, query, /*reregister=*/false,
                       probe_rng, fail);
              }
            }
          }
        } else if (state.db != nullptr) {
          // Degraded: sticky read-only mode for the faulted server or
          // shard(s); reads keep serving the applied prefix.
          ++result.degraded_runs;
          // Whole-batch atomicity: a failed batched append/fsync advanced
          // nothing — seq must equal the updates applied by *successful*
          // commits, never a value inside the failed batch.
          if (state.db->seq() != state.applied) {
            fail(0.0, "half-applied batch: seq " +
                          std::to_string(state.db->seq()) + " but " +
                          std::to_string(state.applied) +
                          " updates were committed");
          }
          if (state.step == "commit") {
            if (state.commit_statuses.empty()) {
              fail(0.0, "failed Commit reported no per-update statuses");
            }
            for (const Status& status : state.commit_statuses) {
              if (status.code() != StatusCode::kUnavailable) {
                fail(0.0,
                     "failed Commit left a per-update status that is not "
                     "kUnavailable: " +
                         status.ToString());
                break;
              }
            }
          }
          ExpectUnavailable(
              state.db->AddKnn("fault", query, options.k).status(), "AddKnn",
              fail);
          ExpectUnavailable(state.db->Checkpoint(), "Checkpoint", fail);
          ExpectUnavailable(state.db->Flush(), "Flush", fail);
          CheckDegraded(*state.db, updates, state.applied, failures_before,
                        result, &extras, fail);
          if (state.db->seq() != state.applied + extras.size()) {
            fail(0.0, "refused commits moved seq from " +
                          std::to_string(state.applied) + " to " +
                          std::to_string(state.db->seq()) + " with " +
                          std::to_string(extras.size()) +
                          " liveness commit(s)");
          }
          // Reads: lockstep-compare the committed prefix (no further
          // updates), including the final serialized state.
          std::vector<Update> committed(
              updates.begin(),
              updates.begin() + static_cast<ptrdiff_t>(state.applied));
          committed.insert(committed.end(), extras.begin(), extras.end());
          verify(*state.db, committed, {}, query, /*reregister=*/false,
                 probe_rng, fail);
        }

        // Power loss + recovery: drop every unsynced byte (on every shard
        // at once), reopen with a clean env (sharded: epoch-cut healing
        // runs), and resume the remaining updates in lockstep. The
        // recovered seq must be a whole-batch prefix: a workload commit
        // boundary — a multiple of kScriptBatch inside the batched first
        // half, `half` itself, or any seq in the single-update second
        // half — or the full committed prefix plus some prefix of the
        // liveness commits (their epochs come after every workload one).
        if (failures_before == result.failures.size() &&
            (state.db == nullptr || state.db->degraded())) {
          const size_t applied = state.applied;
          state.db.reset();
          const Status dropped = env.DropUnsyncedData();
          if (!dropped.ok()) {
            fail(0.0, "DropUnsyncedData: " + dropped.ToString());
          } else {
            StatusOr<std::unique_ptr<Server>> reopened = OpenLane<Server>(
                run_dir, options.shards, ScriptDurabilityOptions(nullptr));
            if (!reopened.ok()) {
              fail(0.0, "reopen after power loss: " +
                            reopened.status().ToString());
            } else {
              std::unique_ptr<Server> db = std::move(reopened).value();
              const size_t recovered = static_cast<size_t>(db->seq());
              const bool on_boundary =
                  recovered <= applied
                      ? (recovered >= half || recovered % kScriptBatch == 0)
                      : recovered <= applied + extras.size();
              if (!on_boundary) {
                fail(0.0, "recovery landed off every commit boundary: seq " +
                              std::to_string(recovered) + " with " +
                              std::to_string(applied) + " committed and " +
                              std::to_string(extras.size()) +
                              " liveness commit(s)");
              } else {
                // What the recovered database must hold, in commit order.
                const size_t kept = std::min(recovered, applied);
                std::vector<Update> replayed(
                    updates.begin(),
                    updates.begin() + static_cast<ptrdiff_t>(kept));
                replayed.insert(replayed.end(), extras.begin(),
                                extras.begin() + static_cast<ptrdiff_t>(
                                                     recovered - kept));
                const std::vector<Update> resume(
                    updates.begin() + static_cast<ptrdiff_t>(kept),
                    updates.end());
                verify(*db, replayed, resume, query, /*reregister=*/true,
                       probe_rng, fail);
                if (failures_before == result.failures.size()) {
                  ++result.reopens;
                }
              }
            }
          }
        }
      }

      state.db.reset();
      if (failures_before == result.failures.size()) {
        fs::remove_all(run_dir, ec);
      }
    }
  }
}

}  // namespace

std::string FaultResult::ToString() const {
  std::ostringstream out;
  out << (ok() ? "ok" : "FAILED") << " (" << total_ops << " ops, " << runs
      << " fault runs, " << injected << " injected, " << surfaced
      << " surfaced, " << degraded_runs << " degraded, "
      << checkpoint_retries << " checkpoint retries, " << liveness_commits
      << " healthy-shard liveness commits, " << reopens
      << " reopen resumes, " << probes << " bit-exact probes, " << audits
      << " audits";
  if (!ok()) out << ", " << failures.size() << " failure(s)";
  out << ")";
  for (const FuzzFailure& failure : failures) {
    out << "\n  " << failure.ToString();
  }
  return out.str();
}

FaultResult RunFaultMatrix(const FaultOptions& options) {
  MODB_CHECK(!options.dir.empty()) << "FaultOptions.dir is required";
  FaultResult result;
  if (options.shards == 0) {
    RunMatrix<DurableQueryServer>(options, result);
  } else {
    RunMatrix<ShardedQueryServer>(options, result);
  }
  return result;
}

std::string FaultReproCommand(const FaultOptions& options) {
  std::ostringstream out;
  out << std::setprecision(17) << "modb_fuzz --faults";
  if (options.shards > 0) out << " --shards " << options.shards;
  out << " --seed " << options.seed << " --ops " << options.num_updates
      << " --objects " << options.num_objects << " --k " << options.k
      << " --threshold " << options.within_threshold;
  if (options.max_faults > 0) out << " --max-faults " << options.max_faults;
  if (options.audit) out << " --audit";
  return out.str();
}

}  // namespace modb
