#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "common/rng.h"
#include "shard/sharded_server.h"

namespace modb::perfbench {
namespace {

constexpr double kExtent = 1000.0;  // World square side.
constexpr double kSpeed = 1.0;      // Max |velocity| per axis.

// Tracks the generator's view of the server (clock, live objects, live
// query slots) so every generated operation is valid when replayed in
// order: update times never precede the clock, terminates hit live
// objects, removals name live queries.
class Builder {
 public:
  Builder(Workload* w, uint64_t seed) : w_(w), rng_(seed) {}

  Rng& rng() { return rng_; }
  double now() const { return now_; }

  void Fleet(size_t n, size_t stable) {
    for (size_t i = 0; i < n; ++i) {
      const ObjectId oid = static_cast<ObjectId>(i + 1);
      w_->fleet.push_back(Update::NewObject(
          oid, 0.0, Vec{rng_.Uniform(0, kExtent), rng_.Uniform(0, kExtent)},
          RandomVelocity()));
      alive_.push_back(oid);
    }
    next_oid_ = static_cast<ObjectId>(n + 1);
    for (size_t i = 0; i < stable && i < n; ++i) {
      w_->stable_ids.push_back(static_cast<ObjectId>(i + 1));
    }
    stable_ = stable;
  }

  size_t Key(const std::string& name, Trajectory trajectory) {
    w_->keys.push_back(KeySpec{name, std::move(trajectory)});
    return w_->keys.size() - 1;
  }

  // A query size in [lo, hi] that depends only on the slot the next query
  // gets, so the query mix, and the work it causes, is the same for every
  // seed; the seed moves the vehicles.
  size_t NextSize(size_t lo, size_t hi) const {
    return lo + (w_->specs.size() * 5) % (hi - lo + 1);
  }

  QuerySpec Knn(size_t key, size_t k) {
    QuerySpec q;
    q.slot = NextSlot();
    q.key = key;
    q.knn = true;
    q.k = k;
    w_->specs[q.slot] = q;
    return q;
  }

  // A within ring sized to hold about `members` vehicles of a uniform
  // fleet of `fleet` (display-sized answers).
  QuerySpec Within(size_t key, double members, size_t fleet) {
    QuerySpec q;
    q.slot = NextSlot();
    q.key = key;
    q.knn = false;
    const double density = static_cast<double>(fleet) / (kExtent * kExtent);
    q.threshold = members / (std::numbers::pi * density);
    w_->specs[q.slot] = q;
    return q;
  }

  void Initial(const QuerySpec& q) {
    w_->initial.push_back(q);
    live_.push_back(q.slot);
  }

  Vec RandomVelocity() {
    return Vec{rng_.Uniform(-kSpeed, kSpeed), rng_.Uniform(-kSpeed, kSpeed)};
  }

  ObjectId RandomVehicle() {
    return alive_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(alive_.size()) - 1))];
  }

  // A batch of `n` updates on distinct objects, all stamped `time`:
  // chdir, or (churn) new/terminate with the given shares.
  std::vector<Update> Batch(size_t n, double time, double p_new,
                            double p_terminate) {
    std::vector<Update> updates;
    std::vector<ObjectId> touched;
    for (size_t i = 0; i < n; ++i) {
      const double u = rng_.Uniform(0.0, 1.0);
      if (u < p_new) {
        const ObjectId oid = next_oid_++;
        updates.push_back(Update::NewObject(
            oid, time,
            Vec{rng_.Uniform(0, kExtent), rng_.Uniform(0, kExtent)},
            RandomVelocity()));
        born_.push_back(oid);
        touched.push_back(oid);
        continue;
      }
      ObjectId oid = RandomVehicle();
      while (std::find(touched.begin(), touched.end(), oid) != touched.end()) {
        oid = RandomVehicle();
      }
      touched.push_back(oid);
      // Stable objects (the first `stable_` ids) are never terminated.
      if (u < p_new + p_terminate && oid > static_cast<ObjectId>(stable_)) {
        updates.push_back(Update::TerminateObject(oid, time));
        alive_.erase(std::find(alive_.begin(), alive_.end(), oid));
      } else {
        updates.push_back(Update::ChangeDirection(oid, time, RandomVelocity()));
      }
    }
    // Objects born in this batch join the pool only afterwards, so one
    // batch never both creates and updates an object.
    alive_.insert(alive_.end(), born_.begin(), born_.end());
    born_.clear();
    return updates;
  }

  // The traced run replays the stream up to this commit.
  void TraceUntil(size_t commit) { trace_commit_ = commit; }

  // `n` chdirs stamped `time` on distinct vehicles drawn from `pool`.
  std::vector<Update> Chdirs(const std::vector<ObjectId>& pool, size_t n,
                             double time) {
    std::vector<Update> updates;
    std::vector<ObjectId> touched;
    while (updates.size() < n) {
      const ObjectId oid = pool[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
      if (std::find(touched.begin(), touched.end(), oid) != touched.end()) {
        continue;
      }
      touched.push_back(oid);
      updates.push_back(Update::ChangeDirection(oid, time, RandomVelocity()));
    }
    return updates;
  }

  void Commit(std::vector<Update> updates) {
    if (commits_ == trace_commit_) w_->trace_ops = w_->ops.size();
    for (const Update& u : updates) now_ = std::max(now_, u.time);
    Op op;
    op.kind = OpKind::kCommit;
    op.updates = std::move(updates);
    w_->ops.push_back(std::move(op));
    ++commits_;
  }

  // One batch of `n` merged reads, cycling over the live queries.
  void Read(size_t n) {
    Op op;
    op.kind = OpKind::kRead;
    for (size_t i = 0; i < n; ++i) {
      op.read_slots.push_back(live_[read_cursor_++ % live_.size()]);
    }
    w_->ops.push_back(std::move(op));
  }

  void Advance(double dt) {
    now_ += dt;
    Op op;
    op.kind = OpKind::kAdvance;
    op.time = now_;
    w_->ops.push_back(std::move(op));
  }

  void Register(const QuerySpec& q) {
    Op op;
    op.kind = OpKind::kRegister;
    op.query = q;
    w_->ops.push_back(std::move(op));
    live_.push_back(q.slot);
  }

  void Remove(size_t slot) {
    Op op;
    op.kind = OpKind::kRemove;
    op.query.slot = slot;
    w_->ops.push_back(std::move(op));
    live_.erase(std::find(live_.begin(), live_.end(), slot));
  }

  void Snapshot(size_t key, size_t k) {
    Op op;
    op.kind = OpKind::kSnapshot;
    op.key = key;
    op.k = k;
    op.time = now_;
    w_->ops.push_back(std::move(op));
  }

  // All vehicles inside a square of side 2*half around the key's position
  // over [now - window, now - window/8]. The interval ends strictly before
  // the clock, so no later update (all stamped >= now) can change the
  // answer and the final-state oracle can check it.
  void Region(size_t key, double half, double window) {
    if (now_ < window) return;  // No past to ask about yet.
    const Vec c = w_->keys[key].trajectory.PositionAt(now_);
    Op op;
    op.kind = OpKind::kRegion;
    op.key = key;
    op.rect[0] = c[0] - half;
    op.rect[1] = c[1] - half;
    op.rect[2] = c[0] + half;
    op.rect[3] = c[1] + half;
    op.interval = TimeInterval(now_ - window, now_ - window / 8);
    w_->ops.push_back(std::move(op));
  }

  void Checkpoint() {
    Op op;
    op.kind = OpKind::kCheckpoint;
    w_->ops.push_back(std::move(op));
  }

  // The post-run tail: `n` single-chdir commits on stable objects. Update
  // times are offsets; the client adds the clock at the end of the run.
  void Tail(size_t n, double step) {
    w_->advance_step = step;
    for (size_t i = 0; i < n; ++i) {
      const ObjectId oid = w_->stable_ids[i % w_->stable_ids.size()];
      w_->tail.push_back(Update::ChangeDirection(
          oid, static_cast<double>(i + 1) * step, RandomVelocity()));
    }
  }

 private:
  size_t NextSlot() {
    w_->specs.emplace_back();
    return w_->specs.size() - 1;
  }

  Workload* w_;
  Rng rng_;
  double now_ = 0.0;
  std::vector<ObjectId> alive_;
  std::vector<ObjectId> born_;
  ObjectId next_oid_ = 1;
  size_t stable_ = 0;
  std::vector<size_t> live_;
  size_t read_cursor_ = 0;
  size_t commits_ = 0;
  size_t trace_commit_ = 0;
};

size_t Uniform(Rng& rng, size_t lo, size_t hi) {
  return static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
}

// sweep: a large fleet, few small-answer queries on 2 keys, and batches of
// chdirs stamped ahead of the clock, so each commit first repairs the
// sweep across hundreds of support changes (Lemma 7/9) before it applies.
void MakeSweep(Builder& b, Workload* w) {
  constexpr size_t kFleet = 10000;
  constexpr size_t kBatch = 32;
  constexpr size_t kCommits = 128;  // Per round.
  constexpr double kStep = 0.05;
  b.Fleet(kFleet, kFleet);
  b.TraceUntil(96);
  const size_t g0 = b.Key("g0", Trajectory::Stationary(0.0, Vec{500, 500}));
  const size_t g1 =
      b.Key("g1", Trajectory::Linear(0.0, Vec{300, 400}, Vec{0.5, 0.3}));
  const size_t g2 =
      b.Key("g2", Trajectory::Linear(0.0, Vec{700, 600}, Vec{-0.4, 0.2}));
  for (size_t key : {g0, g1}) {
    b.Initial(b.Knn(key, 4));
    b.Initial(b.Knn(key, 8));
    b.Initial(b.Within(key, 6.0, kFleet));
  }
  // Each commit's vehicles live on one shard, alternating between shards
  // (one gateway per shard), so a commit's sweep repair runs as a single
  // task: a busy host cannot turn two parallel repairs into serial ones.
  std::vector<ObjectId> homes[kShards];
  for (const Update& u : w->fleet) {
    homes[ShardedQueryServer::ShardOf(u.oid, kShards)].push_back(u.oid);
  }
  for (size_t c = 0; c < kCommits; ++c) {
    b.Commit(b.Chdirs(homes[c % kShards], kBatch, b.now() + kStep));
    b.Read(16);
    if (c % 8 == 7) b.Advance(kStep / 2);
    // A light registration side load that leaves commits alone: found a
    // group on a third key (a sweep build over the whole fleet) and tear
    // it down again before the next commit.
    if (c % 16 == 2) {
      const QuerySpec q = b.Knn(g2, b.NextSize(2, 8));
      b.Register(q);
      b.Remove(q.slot);
    }
    // Snapshot sizes, like query sizes, do not depend on the seed.
    if (c % 8 == 5) b.Snapshot(c % 16 == 5 ? g0 : g1, 4 + (c / 8) % 13);
    if (c % 32 == 13) b.Region(c % 64 == 13 ? g0 : g1, 25.0, 0.05);
    if (c % 32 == 29) b.Checkpoint();
  }
  b.Tail(64, kStep);
  std::ostringstream d;
  d << "fleet=" << kFleet << " keys=2+1 (g0 fixed POI, g1 moving; g2 only"
    << " for registrations) standing=6"
    << " (kNN k=4, k=8 and a ~6-member within ring per key);"
    << " per commit: " << kBatch << " chdirs of one shard's vehicles"
    << " (shards alternate) stamped clock+" << kStep
    << " + 16 merged reads; advance " << kStep / 2
    << " every 8 commits; every 16 commits a kNN founds and tears down a group"
       " on a third key;"
       " snapshot every 8; region every 32; checkpoint every 32";
  w->description = d.str();
}

// churn: the structure changes beside reads. Commits are 1-8 mixed
// new/terminate/chdir updates spanning both shards; standing queries come
// and go on 4 keys, so gdist groups are founded and torn down; one-shot
// snapshot and past-region queries and checkpoints run throughout.
void MakeChurn(Builder& b, Workload* w) {
  constexpr size_t kFleet = 3000;
  constexpr size_t kCommits = 768;  // Per round.
  constexpr double kStep = 0.002;
  constexpr size_t kPerKey = 3;
  b.Fleet(kFleet, 256);
  b.TraceUntil(640);
  std::vector<size_t> keys;
  const char* const names[4] = {"c0", "c1", "c2", "c3"};
  const double centers[4][2] = {{250, 250}, {750, 250}, {250, 750},
                                {750, 750}};
  for (size_t j = 0; j < 4; ++j) {
    keys.push_back(b.Key(names[j], Trajectory::Stationary(
                                       0.0, Vec{centers[j][0], centers[j][1]})));
  }
  // Two keys hold kPerKey queries at any time; the rotation empties the
  // older one (its last removal tears the group down) and fills the next
  // (its first registration founds a group).
  auto make_query = [&](size_t key, size_t i) {
    return i % 3 == 2 ? b.Within(key, static_cast<double>(b.NextSize(10, 40)),
                                 kFleet)
                      : b.Knn(key, b.NextSize(4, 32));
  };
  std::vector<std::vector<size_t>> held(4);
  for (size_t j = 0; j < 2; ++j) {
    for (size_t i = 0; i < kPerKey; ++i) {
      const QuerySpec q = make_query(keys[j], i);
      b.Initial(q);
      held[j].push_back(q.slot);
    }
  }
  size_t oldest = 0;
  size_t step = 0;
  for (size_t c = 0; c < kCommits; ++c) {
    b.Commit(b.Batch(Uniform(b.rng(), 1, 8), b.now() + kStep, 0.25, 0.25));
    b.Read(16);
    if (c % 8 == 7) b.Advance(kStep * 2);
    if (c % 3 == 1) {
      // Steps 0..2 empty key `oldest`; steps 3..5 fill key oldest+2.
      const size_t phase = step % (2 * kPerKey);
      if (phase < kPerKey) {
        b.Remove(held[oldest].front());
        held[oldest].erase(held[oldest].begin());
      } else {
        const size_t j = (oldest + 2) % 4;
        const QuerySpec q = make_query(keys[j], phase - kPerKey);
        b.Register(q);
        held[j].push_back(q.slot);
        if (phase + 1 == 2 * kPerKey) oldest = (oldest + 1) % 4;
      }
      ++step;
    }
    if (c % 16 == 3) b.Snapshot(keys[c / 16 % 4], 8 + (c / 16) % 25);
    if (c % 64 == 35) b.Region(keys[c / 64 % 4], 60.0, 0.05);
    if (c % 96 == 95) b.Checkpoint();
  }
  b.Tail(64, kStep);
  std::ostringstream d;
  d << "fleet=" << kFleet << " (ids 1-256 never terminated) keys=4 standing="
    << 2 * kPerKey << " (2 keys x " << kPerKey
    << ", kNN k in [4,32] and ~10-40-member within rings);"
    << " per commit: 1-8 updates (new 25%, terminate 25%, chdir 50%) stamped"
       " clock+" << kStep << " + 16 merged reads; advance " << 2 * kStep
    << " every 8 commits; every 3 commits one removal or registration"
       " rotating the live keys (1 in 3 founds or tears down a group);"
       " snapshot every 16; region every 64; checkpoint every 96";
  w->description = d.str();
}

}  // namespace

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCommit: return "commit";
    case OpKind::kRead: return "read";
    case OpKind::kAdvance: return "advance";
    case OpKind::kRegister: return "register";
    case OpKind::kRemove: return "remove";
    case OpKind::kSnapshot: return "snapshot";
    case OpKind::kRegion: return "region";
    case OpKind::kCheckpoint: return "checkpoint";
  }
  return "?";
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload();
  out->name = name;
  out->seed = seed;
  Builder b(out, seed);
  if (name == "sweep") {
    MakeSweep(b, out);
  } else if (name == "churn") {
    MakeChurn(b, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace modb::perfbench
