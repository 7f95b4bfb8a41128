#include "perfbench/bench.h"

#include <malloc.h>
#include <sys/vfs.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "gdist/builtin.h"
#include "obs/flight_recorder.h"
#include "obs/modb_metrics.h"
#include "perfbench/flush_env.h"
#include "queries/knn.h"
#include "queries/region_queries.h"
#include "shard/sharded_server.h"

namespace modb::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr size_t kThreads = 2;
// Setup is repeated at least this often and for at least this long, so
// its median spans several moments of the host, not one.
constexpr size_t kSetupMinRepeats = 5;
constexpr double kSetupMinSeconds = 3.0;
constexpr int kReopenRepeats = 3;  // Traced run; the measured run checks one.
// Measured rounds a run makes at least, however short --seconds is.
constexpr size_t kMinRounds = 3;
constexpr size_t kKinds = 8;  // Number of OpKind values.

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU seconds used so far by every thread of the process: the client and
// the server's pool. Time the host gives this guest's vCPU to another
// guest (steal) does not count, and neither do waits on fsync or locks.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Wall and CPU seconds of one measured step.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
};

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Heap bytes the process holds in live allocations, in MB: small blocks
// in every malloc arena plus mmapped blocks. Unlike RSS it leaves out
// pages the allocator keeps after a free and how the pool threads' arenas
// happen to be used.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// A /proc/self/status field (reported in kB), in MB.
double ProcStatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      std::ostringstream s;
      s << "0x" << std::hex << static_cast<uint64_t>(st.f_type);
      return s.str();
    }
  }
}

DurabilityOptions DurableOptions() {
  DurabilityOptions options;
  options.dim = 2;
  options.initial_time = 0.0;
  options.wal.sync = SyncPolicy::kEveryRecord;
  options.auto_checkpoint = false;
  options.env = FlushOnlyEnv();
  return options;
}

ShardedServerOptions ServerOptions() {
  ShardedServerOptions options;
  options.shards = kShards;
  options.threads = kThreads;
  options.durability = DurableOptions();
  return options;
}

// Splits a batch into per-shard sub-batches with the server's own routing.
std::vector<std::vector<Update>> Route(const std::vector<Update>& updates) {
  std::vector<std::vector<Update>> subs(kShards);
  for (const Update& u : updates) {
    subs[ShardedQueryServer::ShardOf(u.oid, kShards)].push_back(u);
  }
  return subs;
}

// ---- host probe -----------------------------------------------------------

// CPU seconds per round trip of a thread handoff, in the reference state
// of the host: the probe's median on the 4-vCPU VM the bounds were set on.
constexpr double kReferenceTripCpu = 13e-6;
constexpr int kProbeTrips = 100;
// Rounds probe the host whenever this much wall time has passed since the
// last probe (checked between operations).
constexpr double kProbeEverySeconds = 0.05;

// The host's speed at a moment, from work that is the benchmark's own: a
// ping-pong between the client thread and a partner thread through a
// mutex and condition variable, the primitives modb's commit path hands
// work to its pool with. On a shared VM the CPU time of the same work
// moves with what other guests do (on a 4-vCPU VM a call's CPU time rose
// 1.3-2x within minutes), and the probe's CPU time moves with it; metrics
// are divided by the probe's factor over the reference so they follow
// modb, not the host.
class HostProbe {
 public:
  HostProbe()
      : partner_([this] {
          std::unique_lock<std::mutex> lock(mu_);
          for (;;) {
            cv_.wait(lock, [this] { return turn_ != kClient; });
            if (turn_ == kStop) return;
            turn_ = kClient;
            cv_.notify_all();
          }
        }) {}

  ~HostProbe() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      turn_ = kStop;
    }
    cv_.notify_all();
    partner_.join();
  }

  // The host factor now: CPU per round trip over the reference (> 1 when
  // the host is slower than in the reference state).
  double Factor() {
    const double cpu0 = CpuSeconds();
    for (int i = 0; i < kProbeTrips; ++i) {
      std::unique_lock<std::mutex> lock(mu_);
      turn_ = kPartner;
      cv_.notify_all();
      cv_.wait(lock, [this] { return turn_ == kClient; });
    }
    return (CpuSeconds() - cpu0) / kProbeTrips / kReferenceTripCpu;
  }

 private:
  enum Turn { kClient, kPartner, kStop };
  std::mutex mu_;
  std::condition_variable cv_;
  Turn turn_ = kClient;
  std::thread partner_;  // Last: starts after the members it uses.
};

// ---- the closed-loop client -----------------------------------------------

// One-shot results kept for the post-run check.
struct OneShots {
  std::vector<std::pair<size_t, std::set<ObjectId>>> snapshots;
  std::vector<std::pair<size_t, AnswerTimeline>> regions;
};

// A sharded server plus what its closed-loop client tracks beside it.
struct Client {
  std::unique_ptr<ShardedQueryServer> db;
  std::vector<QueryId> ids;  // By slot; -1 = not registered.
  std::set<size_t> live;     // Live slots.
  double clock = 0.0;        // Latest update or advance time sent.
  uint64_t updates = 0;      // Updates committed OK.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sink = 0;  // Keeps read results observable.
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

StatusOr<QueryId> RegisterOn(ShardedQueryServer& db, const Workload& w,
                             const QuerySpec& q) {
  const KeySpec& key = w.keys[q.key];
  return q.knn ? db.AddKnn(key.name, key.trajectory, q.k)
               : db.AddWithin(key.name, key.trajectory, q.threshold);
}

// Open a fresh directory, commit the seed fleet, register the initial
// queries. Returns the time this took (its CPU part is a setup_s sample).
Cost Setup(const Workload& w, const std::string& dir, Client* s) {
  fs::remove_all(dir);
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto opened = ShardedQueryServer::Open(dir, ServerOptions());
  MODB_CHECK(opened.ok()) << opened.status().ToString();
  s->db = std::move(*opened);
  const Status seeded = s->db->Commit(w.fleet);
  MODB_CHECK(seeded.ok()) << seeded.ToString();
  s->ids.assign(w.specs.size(), -1);
  for (const QuerySpec& q : w.initial) {
    StatusOr<QueryId> id = RegisterOn(*s->db, w, q);
    MODB_CHECK(id.ok()) << id.status().ToString();
    s->ids[q.slot] = *id;
    s->live.insert(q.slot);
  }
  return Cost{Since(t0), CpuSeconds() - cpu0};
}

ConvexPolygon RectOf(const Op& op) {
  return ConvexPolygon::Rectangle(op.rect[0], op.rect[1], op.rect[2],
                                  op.rect[3]);
}

// Executes one operation on the sharded server; a refusal counts as a
// failed operation.
void Execute(const Workload& w, const Op& op, size_t index, Client* s,
             OneShots* shots) {
  ShardedQueryServer& db = *s->db;
  switch (op.kind) {
    case OpKind::kCommit: {
      std::vector<Status> statuses;
      const Status committed = db.Commit(op.updates, &statuses);
      bool ok = committed.ok();
      for (const Status& st : statuses) ok = ok && st.ok();
      for (const Update& u : op.updates) s->clock = std::max(s->clock, u.time);
      if (!ok) {
        s->Fail("commit #" + std::to_string(index) + ": " +
                committed.ToString());
        return;
      }
      s->updates += op.updates.size();
      return;
    }
    case OpKind::kRead:
      for (size_t slot : op.read_slots) {
        if (s->ids[slot] < 0) {
          s->Fail("read of unregistered slot " + std::to_string(slot));
          return;
        }
        s->sink += db.Answer(s->ids[slot]).size();
      }
      return;
    case OpKind::kAdvance:
      db.AdvanceTo(op.time);
      s->clock = std::max(s->clock, op.time);
      return;
    case OpKind::kRegister: {
      StatusOr<QueryId> id = RegisterOn(db, w, op.query);
      if (!id.ok()) {
        s->Fail("register: " + id.status().ToString());
        return;
      }
      s->ids[op.query.slot] = *id;
      s->live.insert(op.query.slot);
      return;
    }
    case OpKind::kRemove: {
      const Status removed = db.RemoveQuery(s->ids[op.query.slot]);
      s->live.erase(op.query.slot);
      if (!removed.ok()) {
        s->Fail("remove: " + removed.ToString());
        return;
      }
      return;
    }
    case OpKind::kSnapshot:
      shots->snapshots.emplace_back(
          index, db.SnapshotKnnMerged(w.keys[op.key].trajectory, op.k,
                                      op.time));
      return;
    case OpKind::kRegion:
      shots->regions.emplace_back(
          index, db.InsideRegionMerged(RectOf(op), op.interval));
      return;
    case OpKind::kCheckpoint: {
      const Status checkpointed = db.Checkpoint();
      if (!checkpointed.ok()) {
        s->Fail("checkpoint: " + checkpointed.ToString());
        return;
      }
      return;
    }
  }
}

// ---- output checks --------------------------------------------------------

// The benchmark's own copy of the database: the seed fleet plus every
// committed update of the first `executed` ops, applied in order, and the
// one-shot answers it gives. Each answer is computed once, on first use,
// and reused by every round that checks the same op.
class Oracle {
 public:
  Oracle(const Workload& w, size_t executed) : w_(w), mod_(2, 0.0) {
    MODB_CHECK(mod_.ApplyAll(w.fleet).ok());
    for (size_t i = 0; i < executed; ++i) {
      if (w.ops[i].kind != OpKind::kCommit) continue;
      const Status applied = mod_.ApplyAll(w.ops[i].updates);
      MODB_CHECK(applied.ok()) << applied.ToString();
    }
  }

  const MovingObjectDatabase& mod() const { return mod_; }

  const std::set<ObjectId>& Snapshot(size_t index) {
    auto it = snapshots_.find(index);
    if (it == snapshots_.end()) {
      const Op& op = w_.ops[index];
      const SquaredEuclideanGDistance gdist(w_.keys[op.key].trajectory);
      it = snapshots_.emplace(index, SnapshotKnn(mod_, gdist, op.k, op.time))
               .first;
    }
    return it->second;
  }

  const AnswerTimeline& Region(size_t index) {
    auto it = regions_.find(index);
    if (it == regions_.end()) {
      const Op& op = w_.ops[index];
      it = regions_
               .emplace(index,
                        InsideRegionTimeline(mod_, RectOf(op), op.interval))
               .first;
    }
    return it->second;
  }

 private:
  const Workload& w_;
  MovingObjectDatabase mod_;
  std::map<size_t, std::set<ObjectId>> snapshots_;
  std::map<size_t, AnswerTimeline> regions_;
};

// Brute-force check of a standing query's answer at t: squared distances
// of every live vehicle to the key's position. kNN: the answer holds
// min(k, live) vehicles and none outside is strictly nearer than one
// inside. Within: every vehicle clearly inside the ring is in the answer
// and every vehicle clearly outside is not. "Clearly" allows a relative
// 1e-9 for the engine's curve arithmetic.
bool CheckStanding(const MovingObjectDatabase& mod, const Workload& w,
                   const QuerySpec& q, const std::set<ObjectId>& answer,
                   double t) {
  const Vec center = w.keys[q.key].trajectory.PositionAt(t);
  std::vector<std::pair<double, ObjectId>> dist;
  for (ObjectId oid : mod.AliveAt(t)) {
    dist.emplace_back((mod.Find(oid)->PositionAt(t) - center).SquaredLength(),
                      oid);
  }
  auto tol = [](double v) { return 1e-9 * (1.0 + std::abs(v)); };
  size_t found = 0;
  if (q.knn) {
    double worst_in = -1.0;
    double best_out = kInf;
    for (const auto& [d, oid] : dist) {
      if (answer.count(oid) > 0) {
        ++found;
        worst_in = std::max(worst_in, d);
      } else {
        best_out = std::min(best_out, d);
      }
    }
    return found == answer.size() &&
           answer.size() == std::min(q.k, dist.size()) &&
           worst_in <= best_out + tol(best_out);
  }
  for (const auto& [d, oid] : dist) {
    const bool in = answer.count(oid) > 0;
    found += in ? 1 : 0;
    if (in && d > q.threshold + tol(q.threshold)) return false;
    if (!in && d < q.threshold - tol(q.threshold)) return false;
  }
  return found == answer.size();
}

// Two membership timelines agree at every boundary of either and at the
// midpoint of every gap between consecutive boundaries.
bool SameTimeline(const AnswerTimeline& a, const AnswerTimeline& b) {
  std::vector<double> points;
  for (const AnswerTimeline* tl : {&a, &b}) {
    for (const AnswerTimeline::Segment& seg : tl->segments()) {
      points.push_back(seg.interval.lo);
      points.push_back(seg.interval.hi);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const size_t n = points.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    points.push_back(0.5 * (points[i] + points[i + 1]));
  }
  for (double t : points) {
    if (a.AnswerAt(t) != b.AnswerAt(t)) return false;
  }
  return true;
}

// Advances to t_end, then checks every standing answer and every one-shot
// result against the oracle database.
void CheckOutputs(const Workload& w, Oracle* oracle, const OneShots& shots,
                  Client* s) {
  const double t_end = s->clock + w.advance_step;
  s->db->AdvanceTo(t_end);
  s->clock = t_end;
  for (size_t slot : s->live) {
    ++s->attempted;
    if (!CheckStanding(oracle->mod(), w, w.specs[slot],
                       s->db->Answer(s->ids[slot]), t_end)) {
      s->Fail("standing query slot " + std::to_string(slot) +
              " disagrees with brute force at t=" + std::to_string(t_end));
    }
  }
  for (const auto& [index, got] : shots.snapshots) {
    ++s->attempted;
    if (oracle->Snapshot(index) != got) {
      s->Fail("snapshot kNN op #" + std::to_string(index) + " mismatch");
    }
  }
  for (const auto& [index, got] : shots.regions) {
    ++s->attempted;
    if (!SameTimeline(oracle->Region(index), got)) {
      s->Fail("region op #" + std::to_string(index) + " mismatch");
    }
  }
}

// Checkpoints, commits the workload's fixed tail (so every reopen replays
// the same records) and closes the server. Returns the seq to expect.
uint64_t CheckpointTailClose(const Workload& w, Client* s) {
  ++s->attempted;
  const Status checkpointed = s->db->Checkpoint();
  if (!checkpointed.ok()) s->Fail("final checkpoint: " + checkpointed.ToString());
  for (Update u : w.tail) {
    u.time += s->clock;
    ++s->attempted;
    const Status committed = s->db->Commit({u});
    if (!committed.ok()) s->Fail("tail commit: " + committed.ToString());
  }
  const uint64_t seq = s->db->seq();
  s->db.reset();
  return seq;
}

// Reopens `dir` and checks it recovered the expected state. Returns the
// Open() latency in seconds.
double Reopen(const std::string& dir, uint64_t want_seq, size_t want_queries,
              Client* s) {
  ++s->attempted;
  const Clock::time_point t0 = Clock::now();
  auto opened = ShardedQueryServer::Open(dir, ServerOptions());
  const double seconds = Since(t0);
  if (!opened.ok()) {
    s->Fail("reopen: " + opened.status().ToString());
  } else if ((*opened)->seq() != want_seq ||
             (*opened)->live_queries().size() != want_queries) {
    s->Fail("reopen recovered seq " + std::to_string((*opened)->seq()) +
            " and " + std::to_string((*opened)->live_queries().size()) +
            " queries, expected " + std::to_string(want_seq) + " and " +
            std::to_string(want_queries));
  }
  return seconds;
}

void PrintInputs(const Workload& w, const RunConfig& config, bool traced) {
  std::printf("workload=%s seed=%llu mode=%s\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed),
              traced ? "traced" : "measured");
  std::printf("inputs: %s\n", w.description.c_str());
  std::printf(
      "server: shards=%zu pool_threads=%zu, 1 closed-loop client thread, "
      "filesystem=%s, sync=every_record through a flush-only Env (no "
      "fsync), reopens=%d, tail_commits=%zu\n",
      kShards, kThreads, FilesystemOf(config.dir).c_str(),
      traced ? kReopenRepeats : 1, w.tail.size());
  if (traced) return;
  std::printf(
      "measure: setup_repeats>=%zu over>=%.0fs plus one per round, "
      "rounds=1 warm-up + >=%zu measured over>=%.0fs, ops per round=%zu, "
      "host probe=%d round trips every>=%.0fms (reference %.0f us each)\n",
      kSetupMinRepeats, kSetupMinSeconds, kMinRounds, config.seconds,
      w.ops.size(), kProbeTrips, 1e3 * kProbeEverySeconds,
      1e6 * kReferenceTripCpu);
}

void AddMetric(RunResult* r, const std::string& name, double value,
               const std::string& unit) {
  r->metrics.push_back(Metric{name, value, unit});
}

void Finish(const Client& s, RunResult* r) {
  r->attempted = s.attempted;
  r->failed = s.failed;
  r->correct = s.failed == 0;
  for (const std::string& e : s.errors) std::printf("FAILED: %s\n", e.c_str());
}

// ---- traced run -----------------------------------------------------------

// One span recorded by the benchmark around a call into a layer. Replay
// spans name the sharded operation that caused them as their parent.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  size_t op = 0;  // Index in the op stream: the request the span serves.
  std::string name;
  int shard = -1;
  double start_us = 0.0;
  double dur_us = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  uint32_t Record(std::string name, size_t op, int shard, uint32_t parent,
                  Clock::time_point start, Clock::time_point end) {
    Span span;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.op = op;
    span.name = std::move(name);
    span.shard = shard;
    span.start_us = Micros(start - origin_);
    span.dur_us = Micros(end - start);
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  // Chrome trace-event JSON, one span per line; tid = shard + 1.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      out << "{\"name\": \"" << sp.name << "\", \"ph\": \"X\", \"ts\": "
          << sp.start_us << ", \"dur\": " << sp.dur_us
          << ", \"pid\": 1, \"tid\": " << sp.shard + 1
          << ", \"args\": {\"id\": " << sp.id << ", \"parent\": " << sp.parent
          << ", \"op\": " << sp.op << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

  size_t size() const { return spans_.size(); }

 private:
  static double Micros(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Seconds each layer spent on one operation of the traced prefix.
struct OpTiming {
  uint32_t span = 0;       // The sharded call's span.
  double sharded = 0.0;    // ShardedQueryServer call.
  double durable[kShards] = {};  // DurableQueryServer, per shard.
  double queries[kShards] = {};  // QueryServer, per shard.
  bool touched[kShards] = {};    // Shards a commit routes to.
  double kernels = 0.0;    // One-shot kernels summed over shards.
};

double MaxTouched(const double (&v)[kShards], const bool (&touched)[kShards]) {
  double m = 0.0;
  for (size_t s = 0; s < kShards; ++s) {
    if (touched[s]) m = std::max(m, v[s]);
  }
  return m;
}

uint64_t TotalWalBytes(const ShardedQueryServer& db) {
  uint64_t total = 0;
  for (size_t s = 0; s < db.shard_count(); ++s) total += db.shard(s).wal_bytes();
  return total;
}

uint64_t TotalAnswerChanges(const ShardedQueryServer& db) {
  uint64_t total = 0;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    total += db.shard(s).server().cost_ledger().QueryTotals().answer_changes;
  }
  return total;
}

// Replays the traced prefix through one DurableQueryServer per shard, each
// receiving exactly its shard's sub-stream, and times every mutation.
void ReplayDurable(const Workload& w, size_t n, const std::string& dir,
                   Tracer* tracer, std::vector<OpTiming>* timing,
                   Client* check) {
  std::vector<std::unique_ptr<DurableQueryServer>> dbs;
  const std::vector<std::vector<Update>> fleet = Route(w.fleet);
  std::vector<std::vector<QueryId>> ids(
      kShards, std::vector<QueryId>(w.specs.size(), -1));
  auto add = [&w, &ids, &dbs](size_t s, const QuerySpec& q) {
    const KeySpec& key = w.keys[q.key];
    StatusOr<QueryId> id =
        q.knn ? dbs[s]->AddKnn(key.name, key.trajectory, q.k)
              : dbs[s]->AddWithin(key.name, key.trajectory, q.threshold);
    MODB_CHECK(id.ok()) << id.status().ToString();
    ids[s][q.slot] = *id;
  };
  for (size_t s = 0; s < kShards; ++s) {
    auto opened = DurableQueryServer::Open(
        dir + "/shard-" + std::to_string(s), DurableOptions());
    MODB_CHECK(opened.ok()) << opened.status().ToString();
    dbs.push_back(std::move(*opened));
    MODB_CHECK(dbs[s]->Commit(fleet[s]).ok());
    for (const QuerySpec& q : w.initial) add(s, q);
  }
  for (size_t i = 0; i < n; ++i) {
    const Op& op = w.ops[i];
    OpTiming& t = (*timing)[i];
    const std::vector<std::vector<Update>> subs =
        op.kind == OpKind::kCommit ? Route(op.updates)
                                   : std::vector<std::vector<Update>>(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      const Clock::time_point t0 = Clock::now();
      bool timed = true;
      switch (op.kind) {
        case OpKind::kCommit:
          if (subs[s].empty()) {
            timed = false;
          } else {
            ++check->attempted;
            if (!dbs[s]->Commit(subs[s]).ok()) check->Fail("durable replay commit");
          }
          break;
        case OpKind::kAdvance:
          dbs[s]->AdvanceTo(op.time);
          break;
        case OpKind::kCheckpoint:
          ++check->attempted;
          if (!dbs[s]->Checkpoint().ok()) check->Fail("durable replay checkpoint");
          break;
        case OpKind::kRegister:
          add(s, op.query);
          break;
        case OpKind::kRemove:
          MODB_CHECK(dbs[s]->RemoveQuery(ids[s][op.query.slot]).ok());
          timed = false;
          break;
        default:
          timed = false;
      }
      if (!timed) continue;
      const Clock::time_point t1 = Clock::now();
      t.durable[s] = std::chrono::duration<double>(t1 - t0).count();
      tracer->Record(std::string("durability.") + OpName(op.kind), i,
                     static_cast<int>(s), t.span, t0, t1);
    }
  }
}

// Sweep counters summed over the replayed QueryServers.
struct CoreCounts {
  double apply_seconds = 0.0;
  uint64_t updates = 0;
  uint64_t support_changes = 0;
  uint64_t swaps = 0;
  uint64_t crossings = 0;
  uint64_t curve_rebuilds = 0;
  size_t queue_peak = 0;
  std::vector<double> register_seconds;
};

// Replays the traced prefix through one in-memory QueryServer per shard
// (same sub-streams, same registrations) and times each ApplyUpdate.
CoreCounts ReplayQueries(const Workload& w, size_t n, Tracer* tracer,
                         std::vector<OpTiming>* timing, Client* check) {
  CoreCounts counts;
  std::vector<std::unique_ptr<QueryServer>> servers;
  const std::vector<std::vector<Update>> fleet = Route(w.fleet);
  std::vector<GDistancePtr> gdists;
  for (const KeySpec& key : w.keys) {
    gdists.push_back(std::make_shared<SquaredEuclideanGDistance>(key.trajectory));
  }
  std::vector<std::vector<QueryId>> ids(
      kShards, std::vector<QueryId>(w.specs.size(), -1));
  auto add = [&w, &ids, &servers, &gdists](size_t s, const QuerySpec& q) {
    const std::string& key = w.keys[q.key].name;
    ids[s][q.slot] = q.knn ? servers[s]->AddKnn(key, gdists[q.key], q.k)
                           : servers[s]->AddWithin(key, gdists[q.key],
                                                   q.threshold);
  };
  for (size_t s = 0; s < kShards; ++s) {
    MovingObjectDatabase mod(2, 0.0);
    MODB_CHECK(mod.ApplyAll(fleet[s]).ok());
    servers.push_back(std::make_unique<QueryServer>(std::move(mod), 0.0));
    for (const QuerySpec& q : w.initial) add(s, q);
  }
  for (size_t i = 0; i < n; ++i) {
    const Op& op = w.ops[i];
    OpTiming& t = (*timing)[i];
    if (op.kind == OpKind::kCommit) {
      const std::vector<std::vector<Update>> subs = Route(op.updates);
      for (size_t s = 0; s < kShards; ++s) {
        if (subs[s].empty()) continue;
        t.touched[s] = true;
        const Clock::time_point first = Clock::now();
        for (const Update& u : subs[s]) {
          const SweepStats before = servers[s]->TotalStats();
          const Clock::time_point t0 = Clock::now();
          const Status applied = servers[s]->ApplyUpdate(u);
          const double dt = Since(t0);
          const SweepStats after = servers[s]->TotalStats();
          ++check->attempted;
          if (!applied.ok()) check->Fail("queries replay apply");
          t.queries[s] += dt;
          counts.apply_seconds += dt;
          ++counts.updates;
          counts.support_changes +=
              after.SupportChanges() - before.SupportChanges();
          counts.swaps += after.swaps - before.swaps;
          counts.crossings += after.crossings_computed - before.crossings_computed;
          counts.curve_rebuilds += after.curve_rebuilds - before.curve_rebuilds;
          counts.queue_peak = std::max(counts.queue_peak, after.max_queue_length);
        }
        tracer->Record("queries.apply", i, static_cast<int>(s), t.span, first,
                       Clock::now());
      }
      continue;
    }
    if (op.kind != OpKind::kAdvance && op.kind != OpKind::kRegister &&
        op.kind != OpKind::kRemove) {
      continue;
    }
    double total = 0.0;
    for (size_t s = 0; s < kShards; ++s) {
      const Clock::time_point t0 = Clock::now();
      if (op.kind == OpKind::kAdvance) {
        servers[s]->AdvanceTo(op.time);
      } else if (op.kind == OpKind::kRegister) {
        add(s, op.query);
      } else {
        MODB_CHECK(servers[s]->RemoveQuery(ids[s][op.query.slot]).ok());
        continue;
      }
      const Clock::time_point t1 = Clock::now();
      t.queries[s] = std::chrono::duration<double>(t1 - t0).count();
      total += t.queries[s];
      tracer->Record(std::string("queries.") + OpName(op.kind), i,
                     static_cast<int>(s), t.span, t0, t1);
    }
    if (op.kind == OpKind::kRegister) counts.register_seconds.push_back(total);
  }
  return counts;
}

}  // namespace

RunResult RunMeasured(const Workload& w, const RunConfig& config) {
  fs::create_directories(config.dir);
  PrintInputs(w, config, false);
  RunResult result;
  const std::string dir = config.dir + "/db";
  HostProbe probe;

  // The oracle answers every round's checks.
  Oracle oracle(w, w.ops.size());

  // Each setup is probed just before it and divided by that factor.
  std::vector<double> setup_wall, setup_cpu, setup_scaled;
  auto setup = [&](Client* s) {
    const double factor = probe.Factor();
    const Cost cost = Setup(w, dir, s);
    setup_wall.push_back(cost.wall);
    setup_cpu.push_back(cost.cpu);
    setup_scaled.push_back(cost.cpu / factor);
    return cost.cpu;
  };
  const Clock::time_point setup_start = Clock::now();
  while (setup_cpu.size() < kSetupMinRepeats ||
         Since(setup_start) < kSetupMinSeconds) {
    Client s;
    setup(&s);
  }

  // Rounds: each sets up afresh and executes the whole op stream, so every
  // round does the same work whatever the host's speed. Round 0 is warm-up
  // and discarded. Per operation kind, a round yields the median CPU time
  // of its operations divided by the round's host factor (the median of
  // the probes taken between its operations); a metric is the median over
  // the measured rounds.
  std::vector<double> round_ms[kKinds];
  std::vector<double> round_rate;
  // Raw CPU and wall times pooled over the measured rounds, for the
  // printed distributions (a read sample is per read, over one batch).
  std::vector<double> wall_samples[kKinds];
  std::vector<double> cpu_samples[kKinds];
  std::vector<double> factors;  // One per measured round.
  // Per measured round: heap in use once the fixed prefix (w.trace_ops)
  // has run, minus heap in use before the round's setup. The server holds
  // that much; the inputs and the oracle are outside it.
  std::vector<double> heap;
  Client tally;  // Attempted and failed operations of every round.
  Clock::time_point measure_start{};
  size_t rounds = 0;  // Measured rounds.
  for (size_t r = 0;; ++r) {
    if (r == 1) measure_start = Clock::now();
    Client s;
    const double heap0 = HeapInUseMb();
    double heap_after_prefix = 0.0;
    const double setup_s = setup(&s);
    OneShots shots;
    std::vector<double> wall[kKinds];
    std::vector<double> cpu[kKinds];
    std::vector<double> probes;
    double probe_cpu = 0.0;  // Spent probing, left out of the round's CPU.
    Clock::time_point last_probe = Clock::now();
    const double round_cpu0 = CpuSeconds();
    const Clock::time_point round_start = Clock::now();
    for (size_t i = 0; i < w.ops.size(); ++i) {
      const Op& op = w.ops[i];
      ++s.attempted;
      if (Since(last_probe) >= kProbeEverySeconds) {
        const double probe_cpu0 = CpuSeconds();
        probes.push_back(probe.Factor());
        probe_cpu += CpuSeconds() - probe_cpu0;
        last_probe = Clock::now();
      }
      const Clock::time_point t1 = Clock::now();
      const double cpu0 = CpuSeconds();
      Execute(w, op, i, &s, &shots);
      const double dc = CpuSeconds() - cpu0;
      const double dt = Since(t1);
      if (i + 1 == w.trace_ops) heap_after_prefix = HeapInUseMb();
      const double per =
          op.kind == OpKind::kRead
              ? 1.0 / static_cast<double>(op.read_slots.size())
              : 1.0;
      wall[static_cast<size_t>(op.kind)].push_back(dt * per);
      cpu[static_cast<size_t>(op.kind)].push_back(dc * per);
    }
    const double round_cpu = CpuSeconds() - round_cpu0 - probe_cpu;
    const double round_wall = Since(round_start);
    const uint64_t round_updates = s.updates;
    CheckOutputs(w, &oracle, shots, &s);

    const double factor = probes.empty() ? probe.Factor() : Median(probes);
    const size_t commit = static_cast<size_t>(OpKind::kCommit);
    std::printf("round %zu%s: wall=%.3fs cpu=%.3fs updates=%llu commit cpu "
                "p50=%.4f ms, setup cpu=%.4f s, host factor=%.3f (%zu "
                "probes), server heap=%.2f MB\n",
                r, r == 0 ? " (warm-up, discarded)" : "", round_wall,
                round_cpu, static_cast<unsigned long long>(round_updates),
                1e3 * Median(cpu[commit]), setup_s, factor, probes.size(),
                heap_after_prefix - heap0);
    if (r > 0) {
      ++rounds;
      factors.push_back(factor);
      heap.push_back(heap_after_prefix - heap0);
      round_rate.push_back(
          Ratio(static_cast<double>(round_updates), round_cpu / factor));
      for (size_t k = 0; k < kKinds; ++k) {
        if (!cpu[k].empty()) {
          round_ms[k].push_back(1e3 * Median(cpu[k]) / factor);
        }
        wall_samples[k].insert(wall_samples[k].end(), wall[k].begin(),
                               wall[k].end());
        cpu_samples[k].insert(cpu_samples[k].end(), cpu[k].begin(),
                              cpu[k].end());
      }
    }
    const bool last =
        rounds >= kMinRounds && Since(measure_start) >= config.seconds;
    if (last) {
      // The recovery check, on the last round's directory.
      const size_t live_queries = s.live.size();
      const uint64_t seq = CheckpointTailClose(w, &s);
      Reopen(dir, seq, live_queries, &s);
    }
    tally.attempted += s.attempted;
    tally.failed += s.failed;
    for (const std::string& e : s.errors) {
      if (tally.errors.size() < 8) tally.errors.push_back(e);
    }
    if (last) break;
  }
  std::printf(
      "run: warm-up discarded=1 round, measured=%zu rounds over %.3fs wall, "
      "%zu ops per round, host factor p50=%.3f (min %.3f, max %.3f), "
      "server heap taken after op %zu, process VmHWM=%.1f MB\n",
      rounds, Since(measure_start), w.ops.size(), Median(factors),
      *std::min_element(factors.begin(), factors.end()),
      *std::max_element(factors.begin(), factors.end()), w.trace_ops,
      ProcStatusMb("VmHWM"));
  Finish(tally, &result);

  // Every operation's raw wall latency and CPU distribution, bounded
  // metric or not.
  for (size_t k = 0; k < kKinds; ++k) {
    const std::vector<double>& v = wall_samples[k];
    const std::vector<double>& c = cpu_samples[k];
    std::printf(
        "op %-10s n=%-6zu wall p50=%.4f p90=%.4f p99=%.4f ms | cpu "
        "p50=%.4f p90=%.4f ms\n",
        OpName(static_cast<OpKind>(k)), v.size(), 1e3 * Quantile(v, 0.5),
        1e3 * Quantile(v, 0.9), 1e3 * Quantile(v, 0.99),
        1e3 * Quantile(c, 0.5), 1e3 * Quantile(c, 0.9));
  }
  std::printf("setup: n=%zu wall p50=%.4f s (p10 %.4f, p90 %.4f) | cpu "
              "p50=%.4f s (p10 %.4f, p90 %.4f)\n",
              setup_cpu.size(), Median(setup_wall), Quantile(setup_wall, 0.1),
              Quantile(setup_wall, 0.9), Median(setup_cpu),
              Quantile(setup_cpu, 0.1), Quantile(setup_cpu, 0.9));
  auto scaled_ms = [&round_ms](OpKind k) {
    return Median(round_ms[static_cast<size_t>(k)]);
  };
  AddMetric(&result, "setup_s", Median(setup_scaled), "s");
  AddMetric(&result, "updates_per_cpu_s", Median(round_rate), "1/s");
  AddMetric(&result, "commit_cpu_ms", scaled_ms(OpKind::kCommit), "ms");
  AddMetric(&result, "advance_cpu_ms", scaled_ms(OpKind::kAdvance), "ms");
  AddMetric(&result, "register_cpu_ms", scaled_ms(OpKind::kRegister), "ms");
  AddMetric(&result, "snapshot_cpu_ms", scaled_ms(OpKind::kSnapshot), "ms");
  AddMetric(&result, "region_cpu_ms", scaled_ms(OpKind::kRegion), "ms");
  AddMetric(&result, "heap_mb", Median(heap), "MB");
  AddMetric(&result, "op_ok_ratio",
            Ratio(static_cast<double>(result.attempted - result.failed),
                  static_cast<double>(result.attempted)),
            "ratio");
  fs::remove_all(config.dir);
  return result;
}

RunResult RunTraced(const Workload& w, const RunConfig& config) {
  fs::create_directories(config.dir);
  PrintInputs(w, config, true);
  RunResult result;
  const size_t n = std::min(w.trace_ops, w.ops.size());

  // The traced pass: a span around every sharded call, counters read from
  // public accessors around each call (registry deltas cover the sharded
  // calls only, before any replay adds to the process-wide counters).
  Tracer tracer;
  std::vector<OpTiming> timing(n);
  Client s;
  Setup(w, config.dir + "/db", &s);
  ShardedQueryServer& db = *s.db;
  obs::ModbMetrics& m = obs::M();
  const double rss0 = ProcStatusMb("VmRSS");
  uint64_t commits = 0, updates = 0, participants = 0;
  uint64_t publishes = 0, syncs = 0, wal_bytes = 0, answer_changes = 0;
  uint64_t reads = 0, read_entries = 0;
  std::vector<double> snapshot_kernels, region_kernels, read_batches;
  OneShots shots;
  // The tracing overhead: time spent recording the spans of the sharded
  // calls, against the time of the calls themselves. Comparing with a
  // separate untraced pass instead would measure the host's noise between
  // the passes, which is larger than the spans' cost.
  double call_seconds = 0.0;
  double span_seconds = 0.0;
  // Flight-recorder records written by the server during the pass: the
  // whole-pass delta, minus what the in-place one-shot kernels record, so
  // records the checkpoint worker writes just after a call returns count.
  const uint64_t records0 = obs::FlightRecorder::Global().recorded();
  uint64_t kernel_records = 0;
  for (size_t i = 0; i < n; ++i) {
    const Op& op = w.ops[i];
    const uint64_t publishes0 = m.shard_publishes->Value();
    const uint64_t syncs0 = m.wal_syncs->Value();
    const uint64_t bytes0 = op.kind == OpKind::kCommit ? TotalWalBytes(db) : 0;
    const uint64_t changes0 =
        op.kind == OpKind::kCommit ? TotalAnswerChanges(db) : 0;
    const Clock::time_point t0 = Clock::now();
    ++s.attempted;
    Execute(w, op, i, &s, &shots);
    const Clock::time_point t1 = Clock::now();
    OpTiming& t = timing[i];
    t.sharded = std::chrono::duration<double>(t1 - t0).count();
    t.span = tracer.Record(std::string("shard.") + OpName(op.kind), i, -1, 0,
                           t0, t1);
    call_seconds += t.sharded;
    span_seconds += Since(t1);
    if (op.kind == OpKind::kCommit) {
      ++commits;
      updates += op.updates.size();
      publishes += m.shard_publishes->Value() - publishes0;
      syncs += m.wal_syncs->Value() - syncs0;
      wal_bytes += TotalWalBytes(db) - bytes0;
      answer_changes += TotalAnswerChanges(db) - changes0;
      for (const std::vector<Update>& sub : Route(op.updates)) {
        participants += sub.empty() ? 0 : 1;
      }
    } else if (op.kind == OpKind::kRead) {
      read_batches.push_back(
          t.sharded / static_cast<double>(op.read_slots.size()));
      for (size_t slot : op.read_slots) {
        ++reads;
        for (size_t sh = 0; sh < kShards; ++sh) {
          read_entries += db.shard(sh).Answer(s.ids[slot]).size();
        }
      }
    } else if (op.kind == OpKind::kSnapshot || op.kind == OpKind::kRegion) {
      // The same one-shot query on each shard's own MOD, in place: the
      // queries-layer kernel under the sharded merge.
      const SquaredEuclideanGDistance gdist(w.keys[op.key].trajectory);
      for (size_t sh = 0; sh < kShards; ++sh) {
        const MovingObjectDatabase& mod = db.shard(sh).server().mod();
        const uint64_t kr0 = obs::FlightRecorder::Global().recorded();
        const Clock::time_point k0 = Clock::now();
        size_t got = 0;
        if (op.kind == OpKind::kSnapshot) {
          got = SnapshotKnn(mod, gdist, op.k, op.time).size();
        } else {
          got = InsideRegionTimeline(mod, RectOf(op), op.interval)
                    .segments()
                    .size();
        }
        const Clock::time_point k1 = Clock::now();
        kernel_records += obs::FlightRecorder::Global().recorded() - kr0;
        s.sink += got;
        const double dt = std::chrono::duration<double>(k1 - k0).count();
        t.kernels += dt;
        (op.kind == OpKind::kSnapshot ? snapshot_kernels : region_kernels)
            .push_back(dt);
        tracer.Record(op.kind == OpKind::kSnapshot ? "queries.snapshot"
                                                   : "queries.region",
                      i, static_cast<int>(sh), t.span, k0, k1);
      }
    }
  }
  const uint64_t trace_records =
      obs::FlightRecorder::Global().recorded() - records0 - kernel_records;
  uint64_t engines = 0, pieces = 0, segments = 0, ledger_rows = 0;
  for (size_t sh = 0; sh < kShards; ++sh) {
    const DurableQueryServer& shard = db.shard(sh);
    engines += shard.server().engine_count();
    pieces += shard.server().mod().TotalPieces();
    ledger_rows += shard.server().cost_ledger().Groups().size() +
                   shard.server().cost_ledger().Queries().size();
    for (size_t slot : s.live) {
      segments += shard.Timeline(s.ids[slot]).segments().size();
    }
  }
  const double rss_growth = ProcStatusMb("VmRSS") - rss0;

  Oracle oracle(w, n);
  CheckOutputs(w, &oracle, shots, &s);
  const size_t live_queries = s.live.size();
  const uint64_t seq = CheckpointTailClose(w, &s);
  const uint64_t replayed0 = m.recovery_replayed_updates->Value();
  std::vector<double> reopens;
  for (int r = 0; r < kReopenRepeats; ++r) {
    reopens.push_back(Reopen(config.dir + "/db", seq, live_queries, &s));
  }
  const uint64_t replayed =
      (m.recovery_replayed_updates->Value() - replayed0) / kReopenRepeats;
  fs::remove_all(config.dir + "/db");

  // Down the stack: the same inputs through each lower layer.
  ReplayDurable(w, n, config.dir + "/durable", &tracer, &timing, &s);
  fs::remove_all(config.dir + "/durable");
  const CoreCounts core = ReplayQueries(w, n, &tracer, &timing, &s);
  Finish(s, &result);

  std::vector<double> commit, commit_self, self_share, apply_share,
      durable_self, advance_self, oneshot_self, checkpoint;
  for (size_t i = 0; i < n; ++i) {
    const OpTiming& t = timing[i];
    switch (w.ops[i].kind) {
      case OpKind::kCommit: {
        const double slowest = MaxTouched(t.durable, t.touched);
        commit.push_back(t.sharded);
        commit_self.push_back(t.sharded - slowest);
        self_share.push_back(Ratio(t.sharded - slowest, t.sharded));
        apply_share.push_back(
            Ratio(MaxTouched(t.queries, t.touched), t.sharded));
        for (size_t sh = 0; sh < kShards; ++sh) {
          if (t.touched[sh]) durable_self.push_back(t.durable[sh] - t.queries[sh]);
        }
        break;
      }
      case OpKind::kAdvance: {
        advance_self.push_back(
            t.sharded - *std::max_element(t.durable, t.durable + kShards));
        break;
      }
      case OpKind::kSnapshot:
        // Snapshots only: a region's merge is tiny beside two full past
        // sweeps, so its self time would be all run-to-run noise.
        oneshot_self.push_back(t.sharded - t.kernels);
        break;
      case OpKind::kCheckpoint:
        checkpoint.push_back(std::accumulate(t.durable, t.durable + kShards, 0.0));
        break;
      default:
        break;
    }
  }
  const double u = static_cast<double>(updates);
  std::printf("traced prefix: %zu ops, %llu commits, %llu updates, %zu spans\n",
              n, static_cast<unsigned long long>(commits),
              static_cast<unsigned long long>(updates), tracer.size());
  if (!config.trace_out.empty() && !tracer.Write(config.trace_out)) {
    ++result.failed;
    result.correct = false;
    std::printf("FAILED: could not write %s\n", config.trace_out.c_str());
  }

  AddMetric(&result, "shard.commit_ms", 1e3 * Median(commit), "ms");
  AddMetric(&result, "shard.commit_p90_ms", 1e3 * Quantile(commit, 0.9), "ms");
  AddMetric(&result, "shard.commit_self_ms", 1e3 * Median(commit_self), "ms");
  AddMetric(&result, "shard.self_share_of_commit", Median(self_share), "ratio");
  AddMetric(&result, "shard.publishes_per_commit",
            Ratio(static_cast<double>(publishes), static_cast<double>(commits)),
            "count");
  AddMetric(&result, "shard.publish_useful_ratio",
            Ratio(static_cast<double>(answer_changes),
                  static_cast<double>(publishes)),
            "ratio");
  AddMetric(&result, "shard.advance_self_ms", 1e3 * Median(advance_self), "ms");
  AddMetric(&result, "shard.read_us", 1e6 * Median(read_batches), "us");
  AddMetric(&result, "shard.read_entries_per_read",
            Ratio(static_cast<double>(read_entries), static_cast<double>(reads)),
            "count");
  AddMetric(&result, "shard.participants_per_commit",
            Ratio(static_cast<double>(participants),
                  static_cast<double>(commits)),
            "count");
  AddMetric(&result, "shard.oneshot_merge_ms", 1e3 * Median(oneshot_self), "ms");
  AddMetric(&result, "durability.commit_self_ms", 1e3 * Median(durable_self),
            "ms");
  AddMetric(&result, "durability.fsyncs_per_commit",
            Ratio(static_cast<double>(syncs), static_cast<double>(commits)),
            "count");
  AddMetric(&result, "durability.wal_bytes_per_update",
            Ratio(static_cast<double>(wal_bytes), u), "bytes");
  AddMetric(&result, "durability.checkpoint_ms", 1e3 * Median(checkpoint), "ms");
  AddMetric(&result, "durability.replay_records", static_cast<double>(replayed),
            "count");
  AddMetric(&result, "durability.recover_ms", 1e3 * Median(reopens), "ms");
  AddMetric(&result, "queries.apply_us_per_update",
            1e6 * Ratio(core.apply_seconds, u), "us");
  AddMetric(&result, "queries.apply_share_of_commit", Median(apply_share),
            "ratio");
  AddMetric(&result, "queries.engines", static_cast<double>(engines), "count");
  AddMetric(&result, "queries.answer_changes_per_update",
            Ratio(static_cast<double>(answer_changes), u), "count");
  AddMetric(&result, "queries.register_ms",
            1e3 * Median(core.register_seconds), "ms");
  AddMetric(&result, "queries.snapshot_ms", 1e3 * Median(snapshot_kernels),
            "ms");
  AddMetric(&result, "queries.region_ms", 1e3 * Median(region_kernels), "ms");
  const double cu = static_cast<double>(core.updates);
  AddMetric(&result, "core.support_changes_per_update",
            Ratio(static_cast<double>(core.support_changes), cu), "count");
  AddMetric(&result, "core.swaps_per_update",
            Ratio(static_cast<double>(core.swaps), cu), "count");
  AddMetric(&result, "core.crossings_per_update",
            Ratio(static_cast<double>(core.crossings), cu), "count");
  AddMetric(&result, "core.curve_rebuilds_per_update",
            Ratio(static_cast<double>(core.curve_rebuilds), cu), "count");
  AddMetric(&result, "core.queue_peak", static_cast<double>(core.queue_peak),
            "count");
  AddMetric(&result, "core.us_per_support_change",
            1e6 * Ratio(core.apply_seconds,
                        static_cast<double>(core.support_changes)),
            "us");
  AddMetric(&result, "obs.trace_records_per_update",
            Ratio(static_cast<double>(trace_records), u), "count");
  AddMetric(&result, "obs.trace_overhead_ratio",
            Ratio(call_seconds + span_seconds, call_seconds), "ratio");
  AddMetric(&result, "mem.trajectory_pieces", static_cast<double>(pieces),
            "count");
  AddMetric(&result, "mem.timeline_segments", static_cast<double>(segments),
            "count");
  AddMetric(&result, "mem.ledger_rows", static_cast<double>(ledger_rows),
            "count");
  AddMetric(&result, "mem.rss_growth_mb", rss_growth, "MB");
  fs::remove_all(config.dir);
  return result;
}

}  // namespace modb::perfbench
