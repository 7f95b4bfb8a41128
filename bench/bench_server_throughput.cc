// Experiment E15: shared-nothing sharded ingest under concurrent readers.
//
// One mixed workload, swept over shard counts S in {1, 2, 4, 8}: W writer
// threads commit per-vehicle chdir bursts (each burst is one object's
// update stream, so it lands on exactly one shard's WAL) through a
// ShardedQueryServer, while R reader threads poll the lock-free merged
// Answer() path of standing kNN/within queries with a small think time.
// Every configuration runs at equal durability (SyncPolicy::kEveryRecord
// on every shard WAL), so the only variable is how many shared-nothing
// shards the hash partition spreads the bursts over: at S=1 every burst
// serializes behind one shard's WAL fsync, at S=K bursts for different
// vehicles commit on K independent WALs concurrently — the per-shard
// fsync chain shrinks by K while answer publication overlaps the other
// shards' syncs.
//
// Claim: write throughput of the mixed workload at S=4 is >= 3x S=1 (the
// acceptance floor tracked by the committed BENCH_server_throughput.json);
// readers never take a lock, so reads stay wait-free while writes
// scale.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "obs/modb_metrics.h"
#include "shard/sharded_server.h"

namespace modb {
namespace {

namespace fs = std::filesystem;

constexpr size_t kObjects = 1024;
constexpr size_t kWriters = 2;
constexpr size_t kReaders = 2;
// One committed burst = this many chdir updates of a single vehicle
// (1 = the classic telemetry model: each position report commits on its
// own, durable before the gateway acks the vehicle).
constexpr size_t kBurst = 1;
// Closed-loop readers: think time between merged-answer polls, so read
// load is steady instead of saturating the machine.
constexpr auto kReaderThinkTime = std::chrono::milliseconds(4);

std::string FreshDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("modb_bench_shard_" + tag);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

ShardedServerOptions ServerOptions(size_t shards) {
  ShardedServerOptions options;
  options.shards = shards;
  options.durability.dim = 2;
  options.durability.initial_time = 0.0;
  // Equal durability at every shard count: each sub-batch flush ends in
  // an fsync of that shard's WAL.
  options.durability.wal.sync = SyncPolicy::kEveryRecord;
  return options;
}

// Writer w's r-th burst: a stream of course corrections for one vehicle
// at a fixed instant (Corollary 6's bounded-disturbance regime — pure
// apply/publish work, no clock skew between racing writers). Each burst
// hash-routes to a single shard, the way one source's updates do.
std::vector<Update> VehicleBurst(ObjectId oid, size_t writer, size_t round) {
  std::vector<Update> updates;
  updates.reserve(kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    const size_t slot = writer * kBurst + i;
    const double vx = 0.25 + 0.001 * static_cast<double>((slot + round) % 97);
    const double vy =
        -0.5 + 0.001 * static_cast<double>((slot * 31 + round) % 89);
    updates.push_back(Update::ChangeDirection(oid, 1.0, Vec{vx, vy}));
  }
  return updates;
}

// Shard-affine gateway slices: writer w serves the vehicles living on
// shard w % S (the standard scalable-ingest topology — sources route to
// the gateway fronting their shard), so concurrent bursts hit distinct
// WALs whenever there are enough shards to go around.
std::vector<std::vector<ObjectId>> GatewaySlices(size_t shards) {
  std::vector<std::vector<ObjectId>> slices(kWriters);
  for (size_t i = 0; i < kObjects; ++i) {
    const ObjectId oid = static_cast<ObjectId>(i + 1);
    const size_t home = ShardedQueryServer::ShardOf(oid, shards);
    for (size_t w = 0; w < kWriters; ++w) {
      if (w % shards == home) slices[w].push_back(oid);
    }
  }
  return slices;
}

struct RunResult {
  double seconds = 0.0;
  uint64_t updates = 0;
  uint64_t reads = 0;
};

RunResult RunConfig(size_t shards, size_t rounds) {
  const std::string dir = FreshDir("s" + std::to_string(shards));
  auto opened = ShardedQueryServer::Open(dir, ServerOptions(shards));
  MODB_CHECK(opened.ok()) << opened.status().ToString();
  ShardedQueryServer& db = **opened;

  // Seed the fleet (untimed), then register the standing queries the
  // readers will merge.
  std::vector<Update> seed;
  seed.reserve(kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    const double x = static_cast<double>(i % 61);
    const double y = static_cast<double>(i % 47);
    seed.push_back(Update::NewObject(static_cast<ObjectId>(i + 1), 0.0,
                                     Vec{x, y}, Vec{0.5, -0.25}));
  }
  const Status seeded = db.Commit(seed);
  MODB_CHECK(seeded.ok()) << seeded.ToString();

  // A realistic standing-query load: one hot reference point (a popular
  // POI) with many subscribed standing queries of varying k and radius,
  // all sharing one sweep (one gdist key group). The apply fan-out stays
  // at one engine per shard, while answer publication — per QUERY, per
  // member — is the bulk of the post-commit work. Publish touches only
  // the DIRTY shard's cells, so that work localizes (and shrinks) as S
  // grows: the shared-nothing read-path win this bench measures.
  const Trajectory center = Trajectory::Stationary(0.0, Vec{30.0, 30.0});
  std::vector<QueryId> query_ids;
  for (size_t q = 0; q < 48; ++q) {
    auto knn = db.AddKnn("poi", center, q + 1);
    MODB_CHECK(knn.ok()) << knn.status().ToString();
    query_ids.push_back(*knn);
    const double radius = 3.0 + static_cast<double>(q) * 0.85;
    auto within = db.AddWithin("poi", center, radius * radius);
    MODB_CHECK(within.ok()) << within.status().ToString();
    query_ids.push_back(*within);
  }

  const std::vector<std::vector<ObjectId>> slices = GatewaySlices(shards);
  for (const std::vector<ObjectId>& slice : slices) {
    MODB_CHECK(!slice.empty());
  }
  RunResult result;
  result.updates = static_cast<uint64_t>(kWriters * rounds * kBurst);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  result.seconds = bench::MeasureSeconds([&] {
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        uint64_t local = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::set<ObjectId> answer =
              db.Answer(query_ids[(r + local) % query_ids.size()]);
          MODB_CHECK(!answer.empty());
          ++local;
          std::this_thread::sleep_for(kReaderThinkTime);
        }
        reads.fetch_add(local, std::memory_order_relaxed);
      });
    }
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const std::vector<ObjectId>& slice = slices[w];
        for (size_t round = 0; round < rounds; ++round) {
          const ObjectId oid = slice[round % slice.size()];
          const Status committed = db.Commit(VehicleBurst(oid, w, round));
          MODB_CHECK(committed.ok()) << committed.ToString();
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& reader : readers) reader.join();
  });
  result.reads = reads.load();
#ifdef MODB_BENCH_DIAG
  static double last_flush = 0, last_update = 0, last_dispatch = 0;
  const double flush = obs::M().commit_flush_seconds->Sum();
  const double update = obs::M().future_update_seconds->Sum();
  const double dispatch = obs::M().shard_dispatch_seconds->Sum();
  std::printf("DIAG S=%zu wall=%.3f flush=%.3f update=%.3f dispatch=%.3f\n",
              shards, result.seconds, flush - last_flush,
              update - last_update, dispatch - last_dispatch);
  last_flush = flush; last_update = update; last_dispatch = dispatch;
#endif

  const std::string closed_dir = db.dir();
  opened->reset();
  std::error_code ec;
  fs::remove_all(closed_dir, ec);
  return result;
}

void Run(int argc, char** argv) {
  size_t rounds = 96;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--rounds") {
      rounds = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  bench::JsonSink sink(bench::JsonSink::PathFromArgs(argc, argv));
  bench::TraceFile trace(bench::TraceFile::PathFromArgs(argc, argv));

  std::printf(
      "E15: sharded mixed read/write throughput at equal durability "
      "(fsync per burst commit).\n"
      "%zu writers x %zu rounds x %zu-update vehicle bursts, %zu "
      "lock-free readers, 96 standing queries.\n"
      "Claim: S=4 write throughput >= 3x S=1.\n",
      kWriters, rounds, kBurst, kReaders);
  bench::Table table(&sink, "server_throughput",
                     {"shards", "writers", "readers", "updates", "seconds",
                      "updates_per_s", "reads", "reads_per_s", "speedup"});

  double base_ups = 0.0;
  for (size_t shards : {1, 2, 4, 8}) {
    RunResult r = RunConfig(shards, rounds);
    for (int rep = 1; rep < 3; ++rep) {
      const RunResult again = RunConfig(shards, rounds);
      if (again.seconds < r.seconds) r = again;
    }
    const double ups = static_cast<double>(r.updates) / r.seconds;
    if (shards == 1) base_ups = ups;
    table.Row({static_cast<double>(shards), static_cast<double>(kWriters),
               static_cast<double>(kReaders),
               static_cast<double>(r.updates), r.seconds, ups,
               static_cast<double>(r.reads),
               static_cast<double>(r.reads) / r.seconds, ups / base_ups});
  }
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) {
  modb::Run(argc, argv);
  return 0;
}
