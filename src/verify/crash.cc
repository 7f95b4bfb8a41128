#include "verify/crash.h"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "verify/lockstep.h"

namespace fs = std::filesystem;

namespace modb {
namespace {

// Same salt as differential.cc; the workload itself is built by
// BuildFlatUpdates from the same stream family.
constexpr uint64_t kProbeSeedSalt = 0xBF58476D1CE4E5B9ull;
// Crash geometry (where to stop, where to cut) gets its own stream.
constexpr uint64_t kCrashSeedSalt = 0x94D049BB133111EBull;
// Commit batch sizes get their own stream so reshaping the batches never
// moves the crash geometry of an existing seed.
constexpr uint64_t kBatchSeedSalt = 0xD6E8FEB86659FD93ull;
// The sharded lane's checkpoint position has its own stream as well.
constexpr uint64_t kCheckpointSeedSalt = 0x2545F4914F6CDD1Dull;

constexpr size_t kMaxFailures = 8;

// Every WAL's segment and size right after one successful commit, and the
// seq that commit advanced to. Truncating each WAL to `bytes` models power
// loss the instant that commit's fsync returned.
struct WalRow {
  uint64_t seq = 0;
  std::vector<std::string> paths;
  std::vector<uint64_t> bytes;
};

template <typename Server>
WalRow RowOf(Server& db) {
  WalRow row{db.seq(), {}, {}};
  for (size_t w = 0; w < WalCount(db); ++w) {
    row.paths.push_back(Wal(db, w).wal_path());
    row.bytes.push_back(Wal(db, w).wal_bytes());
  }
  return row;
}

// The WAL that logs `oid`'s updates.
size_t WalOf(const DurableQueryServer&, ObjectId) { return 0; }
size_t WalOf(const ShardedQueryServer& db, ObjectId oid) {
  return ShardedQueryServer::ShardOf(oid, db.shard_count());
}

// Newest WAL segment in `dir` and the seq it starts at; empty if none.
std::pair<std::string, uint64_t> NewestSegment(const std::string& dir) {
  std::pair<std::string, uint64_t> newest{"", 0};
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::optional<uint64_t> seq =
        ParseWalFileName(entry.path().filename().string());
    if (seq.has_value() && (newest.first.empty() || *seq > newest.second)) {
      newest = {entry.path().string(), *seq};
    }
  }
  return newest;
}

template <typename Server>
void RunLane(const CrashOptions& options, CrashResult& result,
             const FailFn& fail) {
  const std::vector<Update> updates = BuildFlatUpdates(
      FlatWorkloadOptions{options.seed, options.num_objects,
                          options.num_updates, options.box, options.speed_max,
                          options.mean_gap});

  // Same construction as differential.cc: a randomized moving query point.
  Rng probe_rng(options.seed ^ kProbeSeedSalt);
  const Trajectory query =
      MakeProbeQuery(probe_rng, options.box, options.speed_max);

  DurabilityOptions durable;
  durable.dim = 2;
  durable.initial_time = 0.0;
  durable.auto_checkpoint = options.trigger_bytes > 0;
  durable.snapshot.trigger_bytes =
      options.trigger_bytes > 0 ? options.trigger_bytes : 1;

  Rng crash_rng(options.seed ^ kCrashSeedSalt);
  Rng batch_rng(options.seed ^ kBatchSeedSalt);
  Rng checkpoint_rng(options.seed ^ kCheckpointSeedSalt);
  // The plain lane stops at a seeded prefix; the sharded lane commits the
  // whole workload and loses a suffix to the cut instead.
  result.crash_index =
      kSharded<Server> ? updates.size()
                       : static_cast<size_t>(crash_rng.UniformInt(
                             0, static_cast<int64_t>(updates.size())));

  // Phase A — the doomed run: open fresh, register standing queries,
  // commit the prefix in seeded batches recording every commit's WAL
  // geometry, then "crash" (close, and mutilate the WALs below).
  std::vector<std::string> wal_dirs;
  std::vector<WalRow> rows;
  // Per-WAL bytes no cut goes below. The sharded lane's registration
  // fan-out is already fsynced everywhere: a cut inside it would model a
  // different failure, which recovery detects as journal divergence
  // rather than heals. Its checkpoint raises the floor again: the barrier
  // fsyncs every shard, and each rotated segment's head is fsynced too.
  std::vector<uint64_t> floor;
  {
    std::error_code ec;
    if (fs::exists(options.dir, ec) && !fs::is_empty(options.dir, ec)) {
      fail(0.0, "scratch directory " + options.dir + " held prior state");
      return;
    }
    StatusOr<std::unique_ptr<Server>> opened =
        OpenLane<Server>(options.dir, options.shards, durable);
    if (!opened.ok()) {
      fail(0.0, "phase A open: " + opened.status().ToString());
      return;
    }
    std::unique_ptr<Server> db = std::move(opened).value();
    StatusOr<QueryId> knn = db->AddKnn("crash", query, options.k);
    StatusOr<QueryId> within =
        db->AddWithin("crash", query, options.within_threshold);
    if (!knn.ok() || !within.ok()) {
      fail(0.0, "phase A register: " +
                    (knn.ok() ? within.status() : knn.status()).ToString());
      return;
    }
    for (size_t w = 0; w < WalCount(*db); ++w) {
      wal_dirs.push_back(Wal(*db, w).dir());
    }
    if constexpr (kSharded<Server>) {
      rows.push_back(RowOf(*db));
      floor = rows.front().bytes;
    }
    std::vector<size_t> plan;  // Seeded batch sizes, 1..8 updates each.
    for (size_t i = 0; i < result.crash_index; i += plan.back()) {
      plan.push_back(
          std::min(static_cast<size_t>(1 + batch_rng.UniformInt(0, 7)),
                   result.crash_index - i));
    }
    // The sharded lane rotates every shard once, with the coordinated
    // Checkpoint(), after a seeded batch that is not the last: the cuts
    // then land in segments that begin with a rotated head.
    const size_t checkpoint_after =
        kSharded<Server> && plan.size() >= 2
            ? static_cast<size_t>(checkpoint_rng.UniformInt(
                  0, static_cast<int64_t>(plan.size()) - 2))
            : plan.size();
    size_t i = 0;
    for (size_t b = 0; b < plan.size(); ++b) {
      const std::vector<Update> chunk(
          updates.begin() + static_cast<ptrdiff_t>(i),
          updates.begin() + static_cast<ptrdiff_t>(i + plan[b]));
      const Status committed = db->Commit(chunk);
      if (!committed.ok()) {
        fail(updates[i].time, "phase A commit: " + committed.ToString());
        return;
      }
      i += plan[b];
      ++result.commits;
      rows.push_back(RowOf(*db));
      if (b != checkpoint_after) continue;
      const Status checkpointed = db->Checkpoint();
      if (!checkpointed.ok()) {
        fail(updates[i - 1].time,
             "phase A checkpoint: " + checkpointed.ToString());
        return;
      }
      rows.push_back(RowOf(*db));
      floor = rows.back().bytes;
    }
    // db destructs here: the write buffers reach the files, as they would
    // under any sync policy once the OS page cache survives (the crash we
    // model is a torn write, injected next).
  }

  // The torn writes: every WAL's newest segment is cut independently.
  // Cutting zero bytes models a clean shutdown; cutting into a segment's
  // header models a crash during its creation. Rows recorded in older
  // segments are fully durable, so recovery replays at least the newest
  // segments' start seqs.
  std::vector<std::string> victims;
  uint64_t expected = 0;
  for (const std::string& dir : wal_dirs) {
    const auto [victim, start] = NewestSegment(dir);
    if (victim.empty()) {
      fail(0.0, "phase A left no WAL segment in " + dir);
      return;
    }
    victims.push_back(victim);
    expected += start;
  }
  std::vector<const WalRow*> victim_rows;
  for (const WalRow& row : rows) {
    if (row.paths == victims) victim_rows.push_back(&row);
  }
  std::vector<uint64_t> keep(victims.size());
  std::vector<bool> boundary(victims.size(), false);
  for (size_t w = 0; w < victims.size(); ++w) {
    std::error_code ec;
    const uint64_t file_bytes = fs::file_size(victims[w], ec);
    if (ec) {
      fail(0.0, "cannot stat " + victims[w] + ": " + ec.message());
      return;
    }
    if (!victim_rows.empty() && file_bytes < victim_rows.back()->bytes[w]) {
      fail(0.0, victims[w] + " holds " + std::to_string(file_bytes) +
                    " bytes but the last commit recorded " +
                    std::to_string(victim_rows.back()->bytes[w]));
      return;
    }
    boundary[w] = crash_rng.UniformInt(0, 1) == 1 && !victim_rows.empty();
    if (boundary[w]) {
      keep[w] = victim_rows[static_cast<size_t>(crash_rng.UniformInt(
                                0, static_cast<int64_t>(victim_rows.size()) -
                                       1))]
                    ->bytes[w];
      ++result.boundary_cuts;
    } else {
      keep[w] = static_cast<uint64_t>(crash_rng.UniformInt(
          floor.empty() ? 0 : static_cast<int64_t>(floor[w]),
          static_cast<int64_t>(file_bytes)));
    }
    result.cut_bytes += file_bytes - keep[w];
    if (keep[w] < file_bytes) {
      fs::resize_file(victims[w], keep[w], ec);
      if (ec) {
        fail(0.0, "cannot truncate " + victims[w] + ": " + ec.message());
        return;
      }
    }
  }

  // The consistent cut: a commit survives in a WAL iff the cut kept its
  // whole frame (anything less tears or drops the frame, and torn-tail
  // repair removes it). Sizes only grow, so the recovered prefix ends at
  // the last row every WAL kept whole.
  for (const WalRow* row : victim_rows) {
    bool kept = true;
    for (size_t w = 0; w < victims.size(); ++w) {
      kept = kept && keep[w] >= row->bytes[w];
    }
    if (!kept) break;
    expected = row->seq;
  }

  // Phase B — reopen (a sharded one heals to the cut, adopting the
  // manifest), then resume in lockstep against a fresh in-memory
  // reference that replays the recovered prefix.
  StatusOr<std::unique_ptr<Server>> reopened =
      OpenLane<Server>(options.dir, /*shards=*/0, durable);
  if (!reopened.ok()) {
    fail(0.0, "recovery: " + reopened.status().ToString());
    return;
  }
  std::unique_ptr<Server> db = std::move(reopened).value();
  result.recovered_seq = db->seq();
  if (result.recovered_seq != expected) {
    fail(0.0, "reopen recovered " + std::to_string(result.recovered_seq) +
                  " updates; the consistent cut holds " +
                  std::to_string(expected));
    return;
  }
  for (size_t w = 0; w < WalCount(*db); ++w) {
    const DurableQueryServer& wal = Wal(*db, w);
    result.torn_tail = result.torn_tail || wal.open_info().truncated_tail;
    if (boundary[w] && wal.open_info().truncated_tail) {
      fail(0.0, "WAL " + std::to_string(w) +
                    " was cut on a commit boundary but left a torn tail");
    }
    // Every WAL holds exactly its share of the recovered prefix: never one
    // batch more (it kept a commit a sibling lost) or less.
    size_t share = 0;
    for (size_t i = 0; i < expected; ++i) {
      share += WalOf(*db, updates[i].oid) == w ? 1 : 0;
    }
    if (wal.seq() != share) {
      fail(0.0, "WAL " + std::to_string(w) + " recovered " +
                    std::to_string(wal.seq()) + " updates, not its " +
                    std::to_string(share) + "-update share of the cut");
    }
  }
  if (!floor.empty() && db->live_queries().size() != 2) {
    fail(0.0, "reopen journals " + std::to_string(db->live_queries().size()) +
                  " queries, expected 2");
  }
  if (!result.ok()) return;
  result.lost_updates = result.crash_index - static_cast<size_t>(expected);

  const size_t resume_from = static_cast<size_t>(expected);
  const std::vector<Update> replayed(
      updates.begin(), updates.begin() + static_cast<ptrdiff_t>(resume_from));
  const std::vector<Update> resume(
      updates.begin() + static_cast<ptrdiff_t>(resume_from), updates.end());
  const LockstepOptions lockstep{"crash",           query,
                                 options.k,         options.within_threshold,
                                 options.mean_gap,  options.audit,
                                 /*reregister=*/true};
  // The sharded lane recommits in seeded batches: fresh epochs on the
  // healed server.
  const LockstepStats stats =
      ResumeLockstep(*db, replayed, resume, lockstep, probe_rng,
                     kSharded<Server> ? &batch_rng : nullptr, fail);
  result.requeried = stats.requeried;
  result.probes = stats.probes;
  result.audits = stats.audits;
}

}  // namespace

std::string CrashResult::ToString() const {
  std::ostringstream out;
  out << (ok() ? "ok" : "FAILED") << " (crash after " << crash_index
      << " updates in " << commits << " commits, cut " << cut_bytes
      << " bytes (" << boundary_cuts << " WAL(s) at a boundary)"
      << (torn_tail ? " [torn]" : "") << ", recovered " << recovered_seq
      << ", lost " << lost_updates << ", " << requeried << " requeried, "
      << probes << " bit-exact probes, " << audits << " audits";
  if (!ok()) out << ", " << failures.size() << " failure(s)";
  out << ")";
  for (const FuzzFailure& failure : failures) {
    out << "\n  " << failure.ToString();
  }
  return out.str();
}

CrashResult RunCrashInjection(const CrashOptions& options) {
  MODB_CHECK(!options.dir.empty()) << "CrashOptions.dir is required";
  CrashResult result;
  const FailFn fail = [&result](double time, std::string what) {
    if (result.failures.size() < kMaxFailures) {
      result.failures.push_back(FuzzFailure{std::move(what), time});
    }
  };
  if (options.shards == 0) {
    RunLane<DurableQueryServer>(options, result, fail);
  } else {
    RunLane<ShardedQueryServer>(options, result, fail);
  }
  return result;
}

std::string CrashReproCommand(const CrashOptions& options) {
  std::ostringstream out;
  out << std::setprecision(17) << "modb_fuzz --crash";
  if (options.shards > 0) out << " --shards " << options.shards;
  out << " --seed " << options.seed << " --ops " << options.num_updates
      << " --objects " << options.num_objects << " --k " << options.k
      << " --threshold " << options.within_threshold;
  if (options.shards == 0) out << " --trigger " << options.trigger_bytes;
  if (options.audit) out << " --audit";
  return out.str();
}

}  // namespace modb
