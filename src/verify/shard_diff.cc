#include "verify/shard_diff.h"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "shard/sharded_server.h"
#include "verify/audit.h"
#include "verify/lockstep.h"
#include "workload/generator.h"

namespace modb {
namespace {

// One lane: a ShardedQueryServer plus the ids its registrations got.
struct Lane {
  std::unique_ptr<ShardedQueryServer> db;
  std::vector<QueryId> ids;
};

ShardedServerOptions LaneOptions(size_t shards) {
  ShardedServerOptions options;
  options.shards = shards;
  options.durability.dim = 2;
  options.durability.initial_time = 0.0;
  return options;
}

}  // namespace

std::string ShardDiffResult::ToString() const {
  std::ostringstream out;
  if (ok()) {
    out << "ok (" << batches << " batches, " << probes << " probes, "
        << merged_probes << " merged probes, " << audits << " audits)";
    return out.str();
  }
  out << failures.size() << " failure(s):";
  for (const FuzzFailure& failure : failures) {
    out << "\n  " << failure.ToString();
  }
  return out.str();
}

std::string ShardReproCommand(const ShardDiffOptions& options) {
  std::ostringstream out;
  out << std::setprecision(17) << "modb_fuzz --shards " << options.shards
      << " --seed " << options.seed << " --ops " << options.num_updates
      << " --objects " << options.num_objects << " --k " << options.k
      << " --threshold " << options.within_threshold;
  if (options.audit) out << " --audit";
  return out.str();
}

ShardDiffResult RunShardDifferential(const ShardDiffOptions& options) {
  MODB_CHECK(options.shards >= 2)
      << "the wide lane needs at least 2 shards to differ from the S=1 lane";
  MODB_CHECK(!options.dir.empty());
  ShardDiffResult result;
  const FailFn fail = [&result](double time, std::string what) {
    if (result.failures.size() < 16) {
      result.failures.push_back(FuzzFailure{std::move(what), time});
    }
  };

  FlatWorkloadOptions workload;
  workload.seed = options.seed;
  workload.num_objects = options.num_objects;
  workload.num_updates = options.num_updates;
  workload.box = options.box;
  workload.speed_max = options.speed_max;
  workload.mean_gap = options.mean_gap;
  const std::vector<Update> updates = BuildFlatUpdates(workload);

  Lane lanes[2];
  const size_t widths[2] = {1, options.shards};
  const char* tags[2] = {"/s1", "/sN"};
  for (int lane = 0; lane < 2; ++lane) {
    auto opened = ShardedQueryServer::Open(options.dir + tags[lane],
                                           LaneOptions(widths[lane]));
    if (!opened.ok()) {
      fail(0.0, std::string("open ") + tags[lane] + ": " +
                    opened.status().ToString());
      return result;
    }
    lanes[lane].db = std::move(*opened);
  }

  // The probe queries, registered identically on both lanes. Two share a
  // gdist_key with DIFFERENT trajectories: the engine ranks the second by
  // the first's g-distance (first query under a key founds the group), and
  // the sharded fan-out must reproduce that on every shard.
  Rng probe_rng(options.seed * 2654435761u + 97);
  const Trajectory founder =
      MakeProbeQuery(probe_rng, options.box, options.speed_max);
  const Trajectory tenant =
      MakeProbeQuery(probe_rng, options.box, options.speed_max);
  const Trajectory loner =
      MakeProbeQuery(probe_rng, options.box, options.speed_max);
  const Vec fastest_target =
      RandomPoint(probe_rng, 2, -options.box / 2.0, options.box / 2.0);
  const Vec region_center =
      RandomPoint(probe_rng, 2, -options.box / 2.0, options.box / 2.0);
  const ConvexPolygon region = ConvexPolygon::Rectangle(
      region_center[0] - options.box / 4.0, region_center[1] - options.box / 4.0,
      region_center[0] + options.box / 4.0,
      region_center[1] + options.box / 4.0);

  for (int lane = 0; lane < 2; ++lane) {
    ShardedQueryServer& db = *lanes[lane].db;
    const StatusOr<QueryId> a = db.AddKnn("probe", founder, options.k);
    const StatusOr<QueryId> b =
        db.AddWithin("probe", tenant, options.within_threshold);
    const StatusOr<QueryId> c =
        db.AddKnn("lone", loner, std::max<size_t>(1, options.k / 2));
    for (const StatusOr<QueryId>* id : {&a, &b, &c}) {
      if (!id->ok()) {
        fail(0.0, std::string("register on ") + tags[lane] + ": " +
                      id->status().ToString());
        return result;
      }
      lanes[lane].ids.push_back(**id);
    }
  }
  if (lanes[0].ids != lanes[1].ids) {
    fail(0.0, "fan-out registration ids differ between lanes");
    return result;
  }
  const std::vector<QueryId>& ids = lanes[0].ids;

  // Streaming audits: every engine on every shard of both lanes re-derives
  // its sweep after every processed event.
  std::vector<std::unique_ptr<AuditingObserver>> audits;
  if (options.audit) {
    for (Lane& lane : lanes) {
      for (size_t s = 0; s < lane.db->shard_count(); ++s) {
        lane.db->shard(s).server().VisitEngines(
            [&](const std::string&, FutureQueryEngine& engine) {
              audits.push_back(std::make_unique<AuditingObserver>(
                  &engine.state(), &engine.mod()));
            });
      }
    }
  }

  // Quiesced standing-answer comparison at time t (both lanes advanced).
  QueryPairs paired;
  for (QueryId id : ids) paired.emplace_back(id, id);
  auto probe_standing = [&](double t, const char* where) {
    result.probes +=
        ProbeAnswers(*lanes[0].db, *lanes[1].db, paired, t, where, fail);
  };

  auto probe_merged = [&](double t) {
    ++result.merged_probes;
    const std::set<ObjectId> narrow_knn =
        lanes[0].db->SnapshotKnnMerged(founder, options.k, t);
    const std::set<ObjectId> wide_knn =
        lanes[1].db->SnapshotKnnMerged(founder, options.k, t);
    if (narrow_knn != wide_knn) {
      fail(t, "merged snapshot k-NN diverged at t=" + std::to_string(t) +
                  ": " + AnswerSetToString(narrow_knn) + " vs " +
                  AnswerSetToString(wide_knn));
    }
    ++result.merged_probes;
    const std::set<ObjectId> narrow_fast =
        lanes[0].db->FastestArrivalAtMerged(fastest_target, t);
    const std::set<ObjectId> wide_fast =
        lanes[1].db->FastestArrivalAtMerged(fastest_target, t);
    if (narrow_fast != wide_fast) {
      fail(t, "merged fastest-arrival diverged at t=" + std::to_string(t) +
                  ": " + AnswerSetToString(narrow_fast) + " vs " +
                  AnswerSetToString(wide_fast));
    }
  };

  // Replay in seeded commit batches (1..8 updates), probing after each.
  Rng batch_rng(options.seed * 1099511628211ull + 3);
  size_t index = 0;
  double now = 0.0;
  bool checkpointed = false;
  while (index < updates.size()) {
    const size_t batch_size = std::min<size_t>(
        static_cast<size_t>(batch_rng.UniformInt(1, 8)),
        updates.size() - index);
    const std::vector<Update> batch(updates.begin() + index,
                                    updates.begin() + index + batch_size);
    index += batch_size;
    now = std::max(now, batch.back().time);
    ++result.batches;

    std::vector<Status> statuses[2];
    for (int lane = 0; lane < 2; ++lane) {
      const Status committed =
          lanes[lane].db->Commit(batch, &statuses[lane]);
      if (!committed.ok()) {
        fail(now, std::string("commit on ") + tags[lane] + ": " +
                      committed.ToString());
        return result;
      }
    }
    // Per-update apply verdicts must agree position by position: a
    // mis-routed update fails on one lane and lands on the other.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (statuses[0][i].ok() != statuses[1][i].ok()) {
        fail(now, "apply status diverged for update " + batch[i].ToString() +
                      ": " + statuses[0][i].ToString() + " vs " +
                      statuses[1][i].ToString());
      }
    }

    probe_standing(now, "standing");
    if (result.batches % 4 == 0) probe_merged(now);

    if (!checkpointed && index >= updates.size() / 2) {
      checkpointed = true;
      for (int lane = 0; lane < 2; ++lane) {
        const Status status = lanes[lane].db->Checkpoint();
        if (!status.ok()) {
          fail(now, std::string("checkpoint on ") + tags[lane] + ": " +
                        status.ToString());
          return result;
        }
      }
    }
  }

  // The region timeline sweeps the whole recorded history once, at the
  // end (it is the costliest merge rule).
  {
    ++result.merged_probes;
    const AnswerTimeline narrow =
        lanes[0].db->InsideRegionMerged(region, TimeInterval(0.0, now));
    const AnswerTimeline wide =
        lanes[1].db->InsideRegionMerged(region, TimeInterval(0.0, now));
    const std::string narrow_text = narrow.ToString();
    const std::string wide_text = wide.ToString();
    if (narrow_text != wide_text) {
      fail(now, "merged region timeline diverged:\n    " + narrow_text +
                    "\n    vs\n    " + wide_text);
    }
  }

  for (const auto& auditor : audits) {
    result.audits += auditor->audits_run();
    if (!auditor->report().ok()) {
      fail(now, "sweep audit: " + auditor->report().ToString());
    }
  }
  audits.clear();  // Detach before the engines they watch are torn down.

  // Recovery must preserve the agreement: close both lanes, reopen
  // (adopting each directory's manifest), and re-compare everything.
  for (int lane = 0; lane < 2; ++lane) {
    const Status flushed = lanes[lane].db->Flush();
    if (!flushed.ok()) {
      fail(now, std::string("flush on ") + tags[lane] + ": " +
                    flushed.ToString());
      return result;
    }
    lanes[lane].db.reset();
    ShardedServerOptions adopt = LaneOptions(widths[lane]);
    adopt.shards = 0;
    auto reopened =
        ShardedQueryServer::Open(options.dir + tags[lane], adopt);
    if (!reopened.ok()) {
      fail(now, std::string("reopen ") + tags[lane] + ": " +
                    reopened.status().ToString());
      return result;
    }
    lanes[lane].db = std::move(*reopened);
    if (!lanes[lane].db->recovered()) {
      fail(now, std::string("reopen ") + tags[lane] +
                    " did not recover durable state");
    }
  }
  if (lanes[0].db->live_queries().size() != lanes[1].db->live_queries().size()) {
    fail(now, "live query journals diverged after recovery");
  }
  probe_standing(now, "recovered");
  probe_merged(now);

  return result;
}

}  // namespace modb
