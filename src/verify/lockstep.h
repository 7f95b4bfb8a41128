#ifndef MODB_VERIFY_LOCKSTEP_H_
#define MODB_VERIFY_LOCKSTEP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "durability/durable_server.h"
#include "queries/query_server.h"
#include "shard/sharded_server.h"
#include "verify/differential.h"

namespace modb {

// Shared machinery for the fuzz harnesses (crash.cc, fault.cc,
// shard_diff.cc): building a flat replayable workload and resuming a
// recovered server in lockstep against an in-memory reference server.
// Both lanes execute the same deterministic sweep on the same doubles, so
// every standing-query answer must be BIT-IDENTICAL — no tolerance.
//
// The drivers are templates over the server under test: a plain
// DurableQueryServer (a lane's `shards == 0`) or a ShardedQueryServer
// (`shards >= 2`). Both expose the same verbs; the overloads below cover
// what differs.

struct FlatWorkloadOptions {
  uint64_t seed = 1;
  size_t num_objects = 16;
  size_t num_updates = 80;
  // Workload shape, forwarded to src/workload/generator.
  double box = 300.0;
  double speed_max = 12.0;
  double mean_gap = 0.5;
};

// The workload as one flat update list replayable onto an *empty* MOD: the
// initial population becomes new() records (bit-identical trajectories —
// RandomMod objects are single-piece), then the random stream follows.
// Draws from the same seed family as differential.cc.
std::vector<Update> BuildFlatUpdates(const FlatWorkloadOptions& options);

// The randomized moving query point the harnesses register, constructed
// exactly as differential.cc does. Consumes two draws from `probe_rng`.
Trajectory MakeProbeQuery(Rng& probe_rng, double box, double speed_max);

template <typename Server>
inline constexpr bool kSharded = std::is_same_v<Server, ShardedQueryServer>;

// Opens (or initializes) a lane's directory. `shards` is ignored by the
// plain lane; for the sharded lane 0 adopts the manifest's count.
template <typename Server>
StatusOr<std::unique_ptr<Server>> OpenLane(const std::string& dir,
                                           size_t shards,
                                           const DurabilityOptions& durability) {
  if constexpr (kSharded<Server>) {
    ShardedServerOptions options;
    options.shards = shards;
    options.durability = durability;
    return ShardedQueryServer::Open(dir, options);
  } else {
    return DurableQueryServer::Open(dir, durability);
  }
}

// A plain server is one WAL; a sharded server is one per shard. Wal(db, w)
// is the DurableQueryServer writing WAL w.
inline size_t WalCount(const DurableQueryServer&) { return 1; }
inline size_t WalCount(const ShardedQueryServer& db) {
  return db.shard_count();
}
inline DurableQueryServer& Wal(DurableQueryServer& db, size_t) { return db; }
inline DurableQueryServer& Wal(ShardedQueryServer& db, size_t w) {
  return db.shard(w);
}

using FailFn = std::function<void(double time, std::string what)>;

// (server-under-test id, reference id) for every compared query.
using QueryPairs = std::vector<std::pair<QueryId, QueryId>>;

// Advances both lanes to `t` and compares every paired answer with
// operator==. Returns the number of comparisons made.
template <typename A, typename B>
size_t ProbeAnswers(A& a, B& b, const QueryPairs& paired, double t,
                    const char* where, const FailFn& fail) {
  a.AdvanceTo(t);
  b.AdvanceTo(t);
  for (const auto& [a_id, b_id] : paired) {
    const std::set<ObjectId>& got = a.Answer(a_id);
    const std::set<ObjectId>& want = b.Answer(b_id);
    if (got != want) {
      fail(t, std::string(where) + " query " + std::to_string(a_id) +
                  " diverged at t=" + std::to_string(t) + ": " +
                  AnswerSetToString(got) + " vs " + AnswerSetToString(want));
    }
  }
  return paired.size();
}

// The harness's standing queries and how the lockstep resume runs.
struct LockstepOptions {
  std::string gdist_key;
  Trajectory query;
  size_t k = 3;
  double within_threshold = 150.0 * 150.0;
  double mean_gap = 0.5;
  bool audit = false;
  // Re-add a knn/within query the server lost on both lanes first (the
  // client's move after a crash that ate its registration).
  bool reregister = false;
};

struct LockstepStats {
  size_t probes = 0;     // Bit-exact answer comparisons performed.
  size_t audits = 0;     // SweepAuditor runs across both lanes.
  size_t requeried = 0;  // Lost registrations re-added.
};

// Verifies `db`, which must hold exactly `replayed`, against a fresh
// in-memory reference that replays the same updates, then applies
// `resume` to both lanes in lockstep. Every state the lanes pass through
// is probed once: the recovered one, the one each unit of `resume` (one
// update, or with `batch_rng` a seeded Commit() batch of 1..8) leaves —
// strictly inside the gap before the next unit when there is one — and
// the final one, after which both lanes must serialize to identical
// bytes. With `audit`, SweepAuditor
// re-derives every sweep on both lanes (every shard's). Failures are
// reported through `fail`; stats are returned either way.
template <typename Server>
LockstepStats ResumeLockstep(Server& db, const std::vector<Update>& replayed,
                             const std::vector<Update>& resume,
                             const LockstepOptions& options, Rng& probe_rng,
                             Rng* batch_rng, const FailFn& fail);

}  // namespace modb

#endif  // MODB_VERIFY_LOCKSTEP_H_
