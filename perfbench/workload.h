// Seeded input generation for the end-to-end benchmark. Everything a run
// sends to the server is produced here, before any timing starts: the seed
// fleet, the initial standing queries and a fixed stream of operations.
// A measured run executes the whole stream once per round.
#ifndef MODB_PERFBENCH_WORKLOAD_H_
#define MODB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geom/interval.h"
#include "trajectory/trajectory.h"
#include "trajectory/update.h"

namespace modb::perfbench {

// Shards of the benchmarked ShardedQueryServer.
inline constexpr size_t kShards = 2;

// One gdist key: every standing query registered under it uses this
// trajectory, because the first registration fixes the group's g-distance.
struct KeySpec {
  std::string name;
  Trajectory trajectory;
};

// A standing query registration. `slot` is the query's logical handle in
// the stream; the client maps it to the server-assigned QueryId.
struct QuerySpec {
  size_t slot = 0;
  size_t key = 0;
  bool knn = true;
  size_t k = 0;            // kNN only.
  double threshold = 0.0;  // Within only (squared distance).
};

enum class OpKind {
  kCommit,      // updates
  kRead,        // read_slots: one batch of merged Answer() reads
  kAdvance,     // time
  kRegister,    // query
  kRemove,      // query.slot
  kSnapshot,    // key, k, time
  kRegion,      // region rectangle, interval
  kCheckpoint,
};
const char* OpName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kCommit;
  std::vector<Update> updates;
  std::vector<size_t> read_slots;
  QuerySpec query;
  double time = 0.0;
  size_t key = 0;
  size_t k = 0;
  double rect[4] = {0, 0, 0, 0};  // x_lo, y_lo, x_hi, y_hi
  TimeInterval interval;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::string description;  // Input record: fleet, query mix, cadences.
  std::vector<KeySpec> keys;
  std::vector<Update> fleet;         // Seed fleet, committed in setup.
  std::vector<QuerySpec> initial;    // Registered in setup.
  std::vector<QuerySpec> specs;      // Every query ever used, by slot.
  std::vector<Op> ops;               // One round's stream.
  // Fixed prefix of the stream: the traced run replays it, and the
  // measured run takes its memory peak once its first round executed it.
  size_t trace_ops = 0;
  // Objects that are never terminated; the post-run tail commits chdirs
  // on them, so the reopened directory always replays the same tail.
  std::vector<ObjectId> stable_ids;
  std::vector<Update> tail;  // Times are offsets from the final clock.
  double advance_step = 0.0;  // Clock step for the tail and checks.
};

// Builds workload `name` from `seed`; the same pair gives the same inputs.
// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace modb::perfbench

#endif  // MODB_PERFBENCH_WORKLOAD_H_
