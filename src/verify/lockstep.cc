#include "verify/lockstep.h"

#include <algorithm>
#include <memory>

#include "gdist/builtin.h"
#include "trajectory/serialization.h"
#include "verify/audit.h"
#include "workload/generator.h"

namespace modb {
namespace {

// Same salt as differential.cc: the durability fuzzers draw their
// workloads from the same family of streams.
constexpr uint64_t kStreamSeedSalt = 0x9E3779B97F4A7C15ull;

// Pairs every live durable query with a freshly registered reference twin.
template <typename Server>
QueryPairs PairLiveQueries(const Server& db, QueryServer& ref) {
  QueryPairs paired;
  for (const auto& [id, logged] : db.live_queries()) {
    const GDistancePtr gdist =
        std::make_shared<SquaredEuclideanGDistance>(logged.query);
    paired.emplace_back(
        id, logged.is_knn
                ? ref.AddKnn(logged.gdist_key, gdist, logged.k)
                : ref.AddWithin(logged.gdist_key, gdist, logged.threshold));
  }
  return paired;
}

// The server's database state as one serialized MOD; a sharded server's
// shards are merged object by object.
template <typename Server>
std::string SerializedState(Server& db) {
  double tau = 0.0;
  for (size_t w = 0; w < WalCount(db); ++w) {
    tau = std::max(tau, Wal(db, w).server().mod().last_update_time());
  }
  MovingObjectDatabase merged(2, tau);
  for (size_t w = 0; w < WalCount(db); ++w) {
    for (const auto& [oid, trajectory] : Wal(db, w).server().mod().objects()) {
      const Status restored = merged.Restore(oid, trajectory);
      if (!restored.ok()) {
        return restored.ToString() + " merging o" + std::to_string(oid);
      }
    }
  }
  return ModToString(merged);
}

}  // namespace

std::vector<Update> BuildFlatUpdates(const FlatWorkloadOptions& options) {
  RandomModOptions mod_options;
  mod_options.num_objects = std::max<size_t>(1, options.num_objects);
  mod_options.dim = 2;
  mod_options.box_lo = -options.box;
  mod_options.box_hi = options.box;
  mod_options.speed_min = 1.0;
  mod_options.speed_max = std::max(1.0, options.speed_max);
  mod_options.seed = options.seed;

  UpdateStreamOptions stream_options;
  stream_options.count = options.num_updates;
  stream_options.mean_gap = options.mean_gap;
  stream_options.seed = options.seed ^ kStreamSeedSalt;

  const MovingObjectDatabase initial = RandomMod(mod_options);
  std::vector<Update> updates;
  updates.reserve(initial.size() + options.num_updates);
  for (const auto& [oid, trajectory] : initial.objects()) {
    const LinearPiece& piece = trajectory.pieces().front();
    updates.push_back(
        Update::NewObject(oid, piece.start, piece.origin, piece.velocity));
  }
  if (options.num_updates > 0) {
    const std::vector<Update> stream =
        RandomUpdateStream(initial, mod_options, stream_options);
    updates.insert(updates.end(), stream.begin(), stream.end());
  }
  return updates;
}

Trajectory MakeProbeQuery(Rng& probe_rng, double box, double speed_max) {
  return Trajectory::Linear(
      0.0, RandomPoint(probe_rng, 2, -0.5 * box, 0.5 * box),
      RandomVelocity(probe_rng, 2, 0.5, std::max(1.0, 0.5 * speed_max)));
}

template <typename Server>
LockstepStats ResumeLockstep(Server& db, const std::vector<Update>& replayed,
                             const std::vector<Update>& resume,
                             const LockstepOptions& options, Rng& probe_rng,
                             Rng* batch_rng, const FailFn& fail) {
  LockstepStats stats;
  bool failed = false;
  const FailFn report = [&](double time, std::string what) {
    failed = true;
    fail(time, std::move(what));
  };

  QueryServer ref(MovingObjectDatabase(2, 0.0), 0.0);
  double now = 0.0;
  for (const Update& update : replayed) {
    const Status applied = ref.ApplyUpdate(update);
    if (!applied.ok()) {
      report(update.time, "reference replay: " + applied.ToString());
      return stats;
    }
    now = std::max(now, update.time);
  }

  QueryPairs paired = PairLiveQueries(db, ref);
  if (options.reregister) {
    bool knn_alive = false;
    bool within_alive = false;
    for (const auto& [id, logged] : db.live_queries()) {
      (logged.is_knn ? knn_alive : within_alive) = true;
    }
    const GDistancePtr gdist =
        std::make_shared<SquaredEuclideanGDistance>(options.query);
    if (!knn_alive) {
      const StatusOr<QueryId> id =
          db.AddKnn(options.gdist_key, options.query, options.k);
      if (!id.ok()) {
        report(now, "re-register knn: " + id.status().ToString());
        return stats;
      }
      paired.emplace_back(*id, ref.AddKnn(options.gdist_key, gdist, options.k));
      ++stats.requeried;
    }
    if (!within_alive) {
      const StatusOr<QueryId> id = db.AddWithin(
          options.gdist_key, options.query, options.within_threshold);
      if (!id.ok()) {
        report(now, "re-register within: " + id.status().ToString());
        return stats;
      }
      paired.emplace_back(*id, ref.AddWithin(options.gdist_key, gdist,
                                             options.within_threshold));
      ++stats.requeried;
    }
  }

  std::vector<std::unique_ptr<AuditingObserver>> audits;
  if (options.audit) {
    const auto attach = [&](const std::string&, FutureQueryEngine& engine) {
      audits.push_back(
          std::make_unique<AuditingObserver>(&engine.state(), &engine.mod()));
    };
    for (size_t w = 0; w < WalCount(db); ++w) {
      Wal(db, w).server().VisitEngines(attach);
    }
    ref.VisitEngines(attach);
  }

  const auto probe = [&](double t, const char* where) {
    stats.probes += ProbeAnswers(db, ref, paired, t, where, report);
  };
  probe(now, "recovered");
  for (size_t i = 0; i < resume.size() && !failed;) {
    const size_t n =
        batch_rng == nullptr
            ? 1
            : std::min(static_cast<size_t>(1 + batch_rng->UniformInt(0, 7)),
                       resume.size() - i);
    const std::vector<Update> unit(
        resume.begin() + static_cast<ptrdiff_t>(i),
        resume.begin() + static_cast<ptrdiff_t>(i + n));
    i += n;
    // Probe the state the last unit left, strictly inside the gap before
    // this one as differential.cc does (both lanes may be advanced past an
    // update's time only by the update itself), or at `now` when this unit
    // starts at the same instant.
    probe(unit.front().time > now
              ? now + probe_rng.Uniform(0.05, 0.95) * (unit.front().time - now)
              : now,
          "resumed");
    std::vector<Status> statuses;
    const Status committed = db.Commit(unit, &statuses);
    if (!committed.ok() || statuses.size() != unit.size()) {
      report(unit.front().time, "resume commit: " + committed.ToString() +
                                    " with " + std::to_string(statuses.size()) +
                                    " status(es) for " +
                                    std::to_string(unit.size()) + " update(s)");
      break;
    }
    for (size_t u = 0; u < unit.size() && !failed; ++u) {
      const Status ref_applied = ref.ApplyUpdate(unit[u]);
      if (!statuses[u].ok() || !ref_applied.ok()) {
        report(unit[u].time, "resume apply diverged: recovered lane '" +
                                 statuses[u].ToString() + "' vs reference '" +
                                 ref_applied.ToString() + "'");
      }
    }
    now = std::max(now, unit.back().time);
  }

  if (!failed) {
    probe(now + std::max(1.0, 4.0 * options.mean_gap), "final");
    const std::string got = SerializedState(db);
    const std::string want = ModToString(ref.mod());
    if (got != want) {
      report(now, "final database state diverged (serialized forms differ: " +
                      std::to_string(got.size()) + " vs " +
                      std::to_string(want.size()) + " bytes)");
    }
  }

  for (const auto& auditor : audits) {
    stats.audits += auditor->audits_run();
    if (!auditor->report().ok()) {
      report(auditor->report().now, "audit: " + auditor->report().ToString());
    }
  }
  return stats;
}

template LockstepStats ResumeLockstep(DurableQueryServer&,
                                      const std::vector<Update>&,
                                      const std::vector<Update>&,
                                      const LockstepOptions&, Rng&, Rng*,
                                      const FailFn&);
template LockstepStats ResumeLockstep(ShardedQueryServer&,
                                      const std::vector<Update>&,
                                      const std::vector<Update>&,
                                      const LockstepOptions&, Rng&, Rng*,
                                      const FailFn&);

}  // namespace modb
