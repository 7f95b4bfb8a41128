#include "shard/sharded_server.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/status.h"
#include "durability/shard_layout.h"
#include "durability/wal.h"
#include "gdist/builtin.h"
#include "queries/fastest.h"
#include "queries/knn.h"
#include "queries/region_queries.h"
#include "obs/modb_metrics.h"
#include "shard/answer_board.h"
#include "shard/work_pool.h"
#include "trajectory/mod.h"
#include "verify/fault_env.h"

namespace modb {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("modb_shard_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

ShardedServerOptions Opt(size_t shards, size_t threads = 0) {
  ShardedServerOptions options;
  options.shards = shards;
  options.threads = threads;
  options.durability.dim = 2;
  options.durability.initial_time = 0.0;
  options.durability.auto_checkpoint = false;
  return options;
}

std::unique_ptr<ShardedQueryServer> MustOpen(const std::string& dir,
                                             ShardedServerOptions options) {
  auto opened = ShardedQueryServer::Open(dir, options);
  MODB_CHECK(opened.ok()) << opened.status().ToString();
  return std::move(*opened);
}

// The next unused oid that hashes to `shard` under S = `shards`.
ObjectId OidOn(size_t shard, size_t shards, ObjectId& from) {
  while (ShardedQueryServer::ShardOf(from, shards) != shard) ++from;
  return from++;
}

fs::path NewestWal(const fs::path& shard_dir) {
  fs::path newest;
  for (const fs::directory_entry& entry : fs::directory_iterator(shard_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 &&
        (newest.empty() || entry.path() > newest)) {
      newest = entry.path();
    }
  }
  return newest;
}

// A deterministic fleet: every object moving (nonzero velocity), spread
// around the origin, with a round of course corrections at t=2.
std::vector<std::vector<Update>> FleetBatches(size_t n) {
  std::vector<std::vector<Update>> batches(2);
  for (size_t i = 0; i < n; ++i) {
    const ObjectId oid = static_cast<ObjectId>(i + 1);
    const double x = static_cast<double>(i % 13) * 3.0 - 18.0;
    const double y = static_cast<double>(i % 7) * 4.0 - 12.0;
    const double vx = 0.5 + 0.1 * static_cast<double>(i % 5);
    const double vy = -1.0 + 0.25 * static_cast<double>(i % 9);
    batches[0].push_back(
        Update::NewObject(oid, 0.0, Vec{x, y},
                          Vec{vx, vy == 0.0 ? 0.125 : vy}));
    if (i % 3 == 0) {
      batches[1].push_back(Update::ChangeDirection(
          oid, 2.0, Vec{-vx, 0.5 + 0.05 * static_cast<double>(i % 4)}));
    }
  }
  return batches;
}

// ---------------------------------------------------------------------------
// ShardOf: the stable hash partition.

TEST(ShardOfTest, PinnedValues) {
  // splitmix64-finalizer outputs are part of the on-disk contract (a
  // directory moved across machines must route identically), so pin them.
  const std::vector<size_t> expected4 = {1, 2, 1, 2, 2, 0, 3, 2};
  const std::vector<size_t> expected8 = {1, 6, 5, 2, 2, 0, 7, 6};
  for (ObjectId oid = 1; oid <= 8; ++oid) {
    EXPECT_EQ(ShardedQueryServer::ShardOf(oid, 4),
              expected4[static_cast<size_t>(oid - 1)])
        << "oid " << oid;
    EXPECT_EQ(ShardedQueryServer::ShardOf(oid, 8),
              expected8[static_cast<size_t>(oid - 1)])
        << "oid " << oid;
  }
  EXPECT_EQ(ShardedQueryServer::ShardOf(1404, 4), 3u);
  EXPECT_EQ(ShardedQueryServer::ShardOf(1404, 8), 7u);
}

TEST(ShardOfTest, SpreadsSequentialIdsEvenly) {
  for (size_t shards : {4u, 8u}) {
    std::vector<size_t> counts(shards, 0);
    const size_t n = 10000;
    for (ObjectId oid = 1; oid <= static_cast<ObjectId>(n); ++oid) {
      ++counts[ShardedQueryServer::ShardOf(oid, shards)];
    }
    const double expected = static_cast<double>(n) / shards;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_GT(counts[s], expected * 0.85) << "shard " << s;
      EXPECT_LT(counts[s], expected * 1.15) << "shard " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Manifest layout.

TEST(ShardLayoutTest, ManifestRoundTrip) {
  Env* env = Env::Default();
  const std::string dir = ScratchDir("manifest");
  EXPECT_EQ(ReadShardManifest(env, dir).status().code(),
            StatusCode::kNotFound);

  ShardManifest manifest;
  manifest.shards = 5;
  manifest.dim = 3;
  ASSERT_TRUE(WriteShardManifest(env, dir, manifest).ok());
  const auto read = ReadShardManifest(env, dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->shards, 5u);
  EXPECT_EQ(read->dim, 3u);

  // Written once, never rewritten.
  EXPECT_EQ(WriteShardManifest(env, dir, manifest).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ShardSubdir(7), "shard-007");
  EXPECT_EQ(ShardSubdir(42), "shard-042");
}

TEST(ShardedServerTest, OpenInitializesAdoptsAndRejectsMismatch) {
  const std::string dir = ScratchDir("open");
  // shards=0 on a fresh directory has no manifest to adopt.
  EXPECT_EQ(ShardedQueryServer::Open(dir, Opt(0)).status().code(),
            StatusCode::kNotFound);

  {
    auto db = MustOpen(dir, Opt(4));
    EXPECT_EQ(db->shard_count(), 4u);
    EXPECT_FALSE(db->recovered());
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_TRUE(fs::exists(fs::path(dir) / ShardSubdir(s)))
          << ShardSubdir(s);
    }
  }
  {
    // shards=0 adopts the manifest; a matching count is also fine.
    auto db = MustOpen(dir, Opt(0));
    EXPECT_EQ(db->shard_count(), 4u);
    EXPECT_EQ(db->manifest().dim, 2u);
  }
  // A disagreeing nonzero count is an error, not a reshard.
  EXPECT_EQ(ShardedQueryServer::Open(dir, Opt(2)).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Merged standing answers vs the single-shard lane.

TEST(ShardedServerTest, StandingAnswersBitIdenticalToSingleShard) {
  for (size_t shards : {2u, 4u, 7u}) {
    auto single = MustOpen(
        ScratchDir("eq1_s" + std::to_string(shards)), Opt(1));
    auto wide = MustOpen(
        ScratchDir("eqN_s" + std::to_string(shards)), Opt(shards));

    const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
    const Trajectory rover =
        Trajectory::Linear(0.0, Vec{-10.0, 5.0}, Vec{1.5, -0.5});
    std::vector<QueryId> ids;
    for (ShardedQueryServer* db : {single.get(), wide.get()}) {
      std::vector<QueryId> lane;
      auto add = [&lane](StatusOr<QueryId> id) {
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        lane.push_back(*id);
      };
      add(db->AddKnn("hub", hub, 1));
      add(db->AddKnn("hub", hub, 5));
      add(db->AddWithin("hub", hub, 90.0));
      add(db->AddKnn("rover", rover, 3));
      add(db->AddWithin("rover", rover, 40.0));
      if (ids.empty()) {
        ids = lane;
      } else {
        // Fan-out registration allocates the same durable ids per lane.
        EXPECT_EQ(ids, lane);
      }
    }

    for (const std::vector<Update>& batch : FleetBatches(40)) {
      ASSERT_TRUE(single->Commit(batch).ok());
      ASSERT_TRUE(wide->Commit(batch).ok());
    }

    for (double t : {2.0, 2.5, 3.75, 6.5}) {
      single->AdvanceTo(t);
      wide->AdvanceTo(t);
      EXPECT_EQ(single->now(), wide->now());
      for (QueryId id : ids) {
        EXPECT_EQ(single->Answer(id), wide->Answer(id))
            << "shards=" << shards << " query=" << id << " t=" << t;
      }
    }
    EXPECT_EQ(single->live_queries().size(), wide->live_queries().size());
  }
}

TEST(ShardedServerTest, PerUpdateApplyStatusesKeepCommitOrder) {
  auto db = MustOpen(ScratchDir("apply_status"), Opt(4));
  ASSERT_TRUE(db->Commit(FleetBatches(8)[0]).ok());

  // A mixed batch: valid updates interleaved with an unknown-object chdir
  // whose failure must land at ITS batch position, not its shard's.
  std::vector<Update> batch;
  batch.push_back(Update::ChangeDirection(1, 1.0, Vec{1.0, 1.0}));
  batch.push_back(Update::ChangeDirection(999, 1.0, Vec{1.0, 1.0}));
  batch.push_back(Update::ChangeDirection(2, 1.0, Vec{-1.0, 1.0}));
  std::vector<Status> statuses;
  ASSERT_TRUE(db->Commit(batch, &statuses).ok());
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_FALSE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok()) << statuses[2].ToString();
}

// QueryServer groups sweeps by gdist_key: the first query under a key
// fixes the group's g-distance. The sharded merge must rank with that
// same shared gdist, through removal stickiness and recovery
// re-founding; equality with the S=1 lane (same engine semantics) is the
// oracle for all of it.
TEST(ShardedServerTest, SharedGdistKeyGroupMatchesSingleShard) {
  const std::string dir1 = ScratchDir("group1");
  const std::string dir3 = ScratchDir("group3");
  auto single = MustOpen(dir1, Opt(1));
  auto wide = MustOpen(dir3, Opt(3));

  const Trajectory a = Trajectory::Stationary(0.0, Vec{5.0, 5.0});
  const Trajectory b =
      Trajectory::Linear(0.0, Vec{-20.0, -20.0}, Vec{2.0, 2.0});

  auto both = [&](auto&& fn) {
    QueryId id1 = fn(*single);
    QueryId idN = fn(*wide);
    EXPECT_EQ(id1, idN);
    return id1;
  };
  const QueryId q1 = both([&](ShardedQueryServer& db) {
    auto id = db.AddKnn("shared", a, 4);
    MODB_CHECK(id.ok()) << id.status().ToString();
    return *id;
  });
  // q2 registers under the same key with a DIFFERENT trajectory; the
  // engine ranks it by q1's gdist, and the merge must match.
  const QueryId q2 = both([&](ShardedQueryServer& db) {
    auto id = db.AddKnn("shared", b, 4);
    MODB_CHECK(id.ok()) << id.status().ToString();
    return *id;
  });

  for (const std::vector<Update>& batch : FleetBatches(30)) {
    ASSERT_TRUE(single->Commit(batch).ok());
    ASSERT_TRUE(wide->Commit(batch).ok());
  }
  auto expect_equal = [&](double t, const char* where) {
    single->AdvanceTo(t);
    wide->AdvanceTo(t);
    for (QueryId id : {q1, q2}) {
      if (single->live_queries().count(id) == 0) continue;
      EXPECT_EQ(single->Answer(id), wide->Answer(id))
          << where << " query=" << id << " t=" << t;
    }
  };
  expect_equal(3.0, "both live");

  // Remove the founding query: the group's gdist stays sticky on q1's
  // trajectory while q2 lives.
  ASSERT_TRUE(single->RemoveQuery(q1).ok());
  ASSERT_TRUE(wide->RemoveQuery(q1).ok());
  expect_equal(4.0, "founder removed");

  // Reopen both lanes: recovery replays the journal, where q2 is now the
  // first (hence founding) query under the key — the re-founded group
  // must still agree across lane widths.
  single.reset();
  wide.reset();
  single = MustOpen(dir1, Opt(0));
  wide = MustOpen(dir3, Opt(0));
  EXPECT_TRUE(single->recovered());
  EXPECT_TRUE(wide->recovered());
  expect_equal(5.0, "after reopen");

  // Last query out releases the key; re-adding under it founds a fresh
  // group with the new trajectory.
  ASSERT_TRUE(single->RemoveQuery(q2).ok());
  ASSERT_TRUE(wide->RemoveQuery(q2).ok());
  const QueryId q3 = both([&](ShardedQueryServer& db) {
    auto id = db.AddKnn("shared", b, 4);
    MODB_CHECK(id.ok()) << id.status().ToString();
    return *id;
  });
  single->AdvanceTo(6.0);
  wide->AdvanceTo(6.0);
  EXPECT_EQ(single->Answer(q3), wide->Answer(q3));
}

// ---------------------------------------------------------------------------
// One-shot merged queries vs whole-MOD references.

TEST(ShardedServerTest, OneShotMergesMatchWholeModReferences) {
  auto db = MustOpen(ScratchDir("oneshot"), Opt(3));
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  for (const std::vector<Update>& batch : FleetBatches(36)) {
    ASSERT_TRUE(db->Commit(batch).ok());
    ASSERT_TRUE(mod.ApplyAll(batch).ok());
  }

  const Trajectory probe = Trajectory::Stationary(0.0, Vec{2.0, -3.0});
  const SquaredEuclideanGDistance gdist(probe);
  for (double t : {0.25, 2.5, 5.0}) {
    for (size_t k : {1u, 4u, 11u}) {
      EXPECT_EQ(db->SnapshotKnnMerged(probe, k, t),
                SnapshotKnn(mod, gdist, k, t))
          << "k=" << k << " t=" << t;
    }
    const Vec target{8.0, 8.0};
    EXPECT_EQ(db->FastestArrivalAtMerged(target, t),
              FastestArrivalAt(mod, target, t))
        << "t=" << t;
  }

  const ConvexPolygon region = ConvexPolygon::Rectangle(-8.0, -8.0, 8.0, 8.0);
  const TimeInterval interval(0.0, 6.0);
  const AnswerTimeline merged = db->InsideRegionMerged(region, interval);
  const AnswerTimeline reference = InsideRegionTimeline(mod, region, interval);
  ASSERT_TRUE(merged.finished());
  EXPECT_EQ(merged.Existential(), reference.Existential());
  EXPECT_EQ(merged.Universal(), reference.Universal());
  for (double t = 0.0; t <= 6.0; t += 0.2) {
    EXPECT_EQ(merged.AnswerAt(t), reference.AnswerAt(t)) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Empty shards: more shards than objects.

TEST(ShardedServerTest, EmptyShardsMergeCleanly) {
  auto db = MustOpen(ScratchDir("sparse"), Opt(8));
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  std::vector<Update> seed = {
      Update::NewObject(1, 0.0, Vec{1.0, 0.0}, Vec{0.5, 0.5}),
      Update::NewObject(2, 0.0, Vec{4.0, 1.0}, Vec{-0.5, 0.25}),
      Update::NewObject(3, 0.0, Vec{-2.0, 3.0}, Vec{0.25, -0.5}),
  };
  ASSERT_TRUE(db->Commit(seed).ok());
  ASSERT_TRUE(mod.ApplyAll(seed).ok());

  const Trajectory origin = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  auto knn = db->AddKnn("origin", origin, 5);
  ASSERT_TRUE(knn.ok());
  auto within = db->AddWithin("origin", origin, 1000.0);
  ASSERT_TRUE(within.ok());

  db->AdvanceTo(1.0);
  const std::set<ObjectId> everyone = {1, 2, 3};
  // k exceeds the population and several shards are empty; the merge
  // still returns everything exactly once.
  EXPECT_EQ(db->Answer(*knn), everyone);
  EXPECT_EQ(db->Answer(*within), everyone);
  EXPECT_EQ(db->SnapshotKnnMerged(origin, 2, 1.0),
            SnapshotKnn(mod, SquaredEuclideanGDistance(origin), 2, 1.0));
  EXPECT_EQ(db->FastestArrivalAtMerged(Vec{0.0, 0.0}, 1.0),
            FastestArrivalAt(mod, Vec{0.0, 0.0}, 1.0));
}

// ---------------------------------------------------------------------------
// Recovery.

TEST(ShardedServerTest, RecoveryPreservesAnswersAcrossReopen) {
  const std::string dir = ScratchDir("recover");
  std::vector<QueryId> ids;
  std::vector<std::set<ObjectId>> before;
  uint64_t seq_before = 0;
  {
    auto db = MustOpen(dir, Opt(3));
    for (const std::vector<Update>& batch : FleetBatches(24)) {
      ASSERT_TRUE(db->Commit(batch).ok());
    }
    const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
    auto knn = db->AddKnn("hub", hub, 6);
    ASSERT_TRUE(knn.ok());
    auto within = db->AddWithin("hub", hub, 120.0);
    ASSERT_TRUE(within.ok());
    ids = {*knn, *within};
    ASSERT_TRUE(db->Flush().ok());
    db->AdvanceTo(3.0);
    for (QueryId id : ids) before.push_back(db->Answer(id));
    seq_before = db->seq();
  }
  const uint64_t runs_before = obs::M().recovery_runs->Value();
  const uint64_t replayed_before =
      obs::M().recovery_replayed_updates->Value();
  auto db = MustOpen(dir, Opt(0));
  // One recovery per shard, each replaying its share of the log once.
  EXPECT_EQ(obs::M().recovery_runs->Value(), runs_before + 3);
  EXPECT_EQ(obs::M().recovery_replayed_updates->Value(),
            replayed_before + seq_before);
  EXPECT_TRUE(db->recovered());
  EXPECT_EQ(db->shard_count(), 3u);
  EXPECT_EQ(db->seq(), seq_before);
  EXPECT_EQ(db->live_queries().size(), 2u);
  db->AdvanceTo(3.0);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(db->Answer(ids[i]), before[i]) << "query " << ids[i];
  }
}

TEST(ShardedServerTest, TornRegistrationOnOneShardIsDataLoss) {
  const std::string dir = ScratchDir("torn");
  {
    auto db = MustOpen(dir, Opt(3));
    ASSERT_TRUE(db->Commit(FleetBatches(12)[0]).ok());
    const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
    // The registration is the LAST record in every shard's WAL.
    ASSERT_TRUE(db->AddKnn("hub", hub, 3).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  // Tear the tail of one shard's newest segment: that shard's recovery
  // drops the registration the other two kept.
  const fs::path newest = NewestWal(fs::path(dir) / ShardSubdir(1));
  ASSERT_FALSE(newest.empty());
  const uintmax_t size = fs::file_size(newest);
  ASSERT_GT(size, 4u);
  fs::resize_file(newest, size - 3);

  const auto reopened = ShardedQueryServer::Open(dir, Opt(0));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
      << reopened.status().ToString();
}

// ---------------------------------------------------------------------------
// Concurrency: parallel commits with lock-free readers, checked against a
// sequential single-shard replay of the same updates.

TEST(ShardedServerTest, ConcurrentCommitsMatchSequentialReplay) {
  auto db = MustOpen(ScratchDir("conc"), Opt(4, /*threads=*/2));
  const size_t kFleet = 64;
  const std::vector<Update> seed = FleetBatches(kFleet)[0];
  ASSERT_TRUE(db->Commit(seed).ok());
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  auto knn = db->AddKnn("hub", hub, 8);
  ASSERT_TRUE(knn.ok());
  auto within = db->AddWithin("hub", hub, 150.0);
  ASSERT_TRUE(within.ok());

  // Each writer owns a disjoint oid slice, so each object's update stream
  // is ordered no matter how the writers interleave.
  const size_t kWriters = 2;
  const size_t kRounds = 25;
  auto velocity = [](ObjectId oid, size_t round) {
    return Vec{0.2 + 0.01 * static_cast<double>((oid + round) % 23),
               -0.4 + 0.01 * static_cast<double>((oid * 7 + round) % 19)};
  };
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Lock-free merged reads racing the commits: every snapshot must be
    // internally sane even while cells churn.
    while (!stop.load(std::memory_order_relaxed)) {
      const std::set<ObjectId> answer = db->Answer(*knn);
      EXPECT_LE(answer.size(), 8u);
      for (ObjectId oid : answer) {
        EXPECT_GE(oid, 1u);
        EXPECT_LE(oid, static_cast<ObjectId>(kFleet));
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (ObjectId oid = static_cast<ObjectId>(w + 1);
             oid <= static_cast<ObjectId>(kFleet);
             oid += static_cast<ObjectId>(kWriters)) {
          if ((oid + round) % 5 != 0) continue;
          const Status status = db->ApplyUpdate(
              Update::ChangeDirection(oid, 1.0, velocity(oid, round)));
          EXPECT_TRUE(status.ok()) << status.ToString();
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Sequential replay of the same logical stream into an S=1 lane.
  auto replay = MustOpen(ScratchDir("conc_replay"), Opt(1));
  ASSERT_TRUE(replay->Commit(seed).ok());
  ASSERT_TRUE(replay->AddKnn("hub", hub, 8).ok());
  ASSERT_TRUE(replay->AddWithin("hub", hub, 150.0).ok());
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t round = 0; round < kRounds; ++round) {
      for (ObjectId oid = static_cast<ObjectId>(w + 1);
           oid <= static_cast<ObjectId>(kFleet);
           oid += static_cast<ObjectId>(kWriters)) {
        if ((oid + round) % 5 != 0) continue;
        ASSERT_TRUE(replay
                        ->ApplyUpdate(Update::ChangeDirection(
                            oid, 1.0, velocity(oid, round)))
                        .ok());
      }
    }
  }
  db->AdvanceTo(4.0);
  replay->AdvanceTo(4.0);
  EXPECT_EQ(db->Answer(*knn), replay->Answer(*knn));
  EXPECT_EQ(db->Answer(*within), replay->Answer(*within));
}

TEST(ShardedServerTest, RemoveQueryRacingCommitsNeverPublishesStaleIds) {
  // Regression: RemoveQuery must drop the query from the publish set
  // before ANY shard forgets it — otherwise a racing commit's publish
  // asks a shard for the answer to an id it already removed, and the
  // lookup aborts the process.
  auto db = MustOpen(ScratchDir("remove_race"), Opt(4, /*threads=*/2));
  const size_t kFleet = 48;
  ASSERT_TRUE(db->Commit(FleetBatches(kFleet)[0]).ok());
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++round;
      for (ObjectId oid = 1; oid <= static_cast<ObjectId>(kFleet); ++oid) {
        const Status status = db->ApplyUpdate(Update::ChangeDirection(
            oid, 1.0,
            Vec{0.1 + 0.01 * static_cast<double>((oid + round) % 11),
                -0.3 + 0.01 * static_cast<double>((oid * 3 + round) % 17)}));
        EXPECT_TRUE(status.ok()) << status.ToString();
      }
    }
  });
  for (int i = 0; i < 100; ++i) {
    auto knn = db->AddKnn("hub", hub, 6);
    ASSERT_TRUE(knn.ok());
    auto within = db->AddWithin("ring", hub, 120.0);
    ASSERT_TRUE(within.ok());
    EXPECT_LE(db->Answer(*knn).size(), 6u);
    ASSERT_TRUE(db->RemoveQuery(*within).ok());
    ASSERT_TRUE(db->RemoveQuery(*knn).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_TRUE(db->live_queries().empty());
}

// The query records (registrations and removals) in shard `s`'s active
// WAL segment, in log order.
std::vector<WalRecordType> QueryRecords(const std::string& dir, size_t s) {
  const auto read =
      ReadWalSegment(NewestWal(fs::path(dir) / ShardSubdir(s)).string());
  MODB_CHECK(read.ok()) << read.status().ToString();
  std::vector<WalRecordType> out;
  for (const WalRecord& record : read->records) {
    if (record.type == WalRecordType::kRegisterQuery ||
        record.type == WalRecordType::kRemoveQuery) {
      out.push_back(record.type);
    }
  }
  return out;
}

// Skews shard `leader`'s id allocator by registering directly on it,
// bypassing the fan-out — the situation a faulted fan-out leaves behind
// (its rollback removes the query, and the id stays consumed). The next
// fan-out must take the largest next id and register it on BOTH shards:
// the lagging shard journals one registration, no burned add+remove pairs.
void ExpectFanOutTakesTheLargestNextId(const std::string& dir,
                                       size_t leader) {
  auto db = MustOpen(dir, Opt(2));
  const size_t lagging = 1 - leader;
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  ASSERT_TRUE(db->shard(leader).AddKnn("rogue", hub, 2).ok());
  const auto added = db->AddKnn("hub", hub, 4);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 1);
  EXPECT_EQ(db->shard(0).live_queries().count(*added), 1u);
  EXPECT_EQ(db->shard(1).live_queries().count(*added), 1u);
  EXPECT_EQ(db->shard(lagging).live_queries().size(), 1u);
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(QueryRecords(dir, lagging),
            std::vector<WalRecordType>{WalRecordType::kRegisterQuery});
  // The next fan-out lands one id later.
  const auto next = db->AddWithin("hub", hub, 100.0);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, *added + 1);
}

TEST(ShardedServerTest, FanOutTakesTheLargestNextIdWhenTheFirstShardLeads) {
  ExpectFanOutTakesTheLargestNextId(ScratchDir("diverge"), 0);
}

TEST(ShardedServerTest, FanOutTakesTheLargestNextIdWhenALaterShardLeads) {
  ExpectFanOutTakesTheLargestNextId(ScratchDir("diverge-late"), 1);
}

TEST(ShardedServerTest, QueryIdsAreNotReusedAfterCheckpointAndReopen) {
  // Regression: each shard's rotated segment re-journaled only live
  // queries, so a removed highest id came back after reopen.
  const std::string dir = ScratchDir("id_reuse");
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  {
    auto db = MustOpen(dir, Opt(2));
    ASSERT_EQ(*db->AddKnn("hub", hub, 2), 0);
    ASSERT_EQ(*db->AddWithin("hub", hub, 50.0), 1);
    ASSERT_TRUE(db->RemoveQuery(1).ok());
    ASSERT_TRUE(db->Commit(FleetBatches(8)[0]).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = MustOpen(dir, Opt(0));
  EXPECT_EQ(db->live_queries().size(), 1u);
  const auto next = db->AddKnn("hub", hub, 3);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 2);
}

TEST(ShardedServerTest, CheckpointHeadJournalsFloorQueriesThenRemoval) {
  // The rotated segment's head is staged whole and written with one
  // append; its records keep their order: the epoch floor, every live
  // registration in ascending id, then the removal of the highest id.
  const std::string dir = ScratchDir("rotation_head");
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  auto db = MustOpen(dir, Opt(2));
  ASSERT_EQ(*db->AddKnn("hub", hub, 2), 0);
  ASSERT_EQ(*db->AddWithin("hub", hub, 50.0), 1);
  ASSERT_EQ(*db->AddKnn("hub", hub, 3), 2);
  ASSERT_TRUE(db->RemoveQuery(2).ok());
  ASSERT_TRUE(db->Commit(FleetBatches(8)[0]).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_GT(db->shard(s).seq(), 0u);  // Both shards rotated.
    const auto read = ReadWalSegment(db->shard(s).wal_path());
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->header.start_seq, db->shard(s).seq());
    EXPECT_FALSE(read->torn_tail);
    ASSERT_EQ(read->records.size(), 4u);
    EXPECT_EQ(read->records[0].type, WalRecordType::kEpochFloor);
    EXPECT_EQ(read->records[0].epoch, 1u);
    EXPECT_EQ(read->records[1].type, WalRecordType::kRegisterQuery);
    EXPECT_EQ(read->records[1].query.id, 0);
    EXPECT_EQ(read->records[2].type, WalRecordType::kRegisterQuery);
    EXPECT_EQ(read->records[2].query.id, 1);
    EXPECT_EQ(read->records[3].type, WalRecordType::kRemoveQuery);
    EXPECT_EQ(read->records[3].removed_id, 2);
    EXPECT_EQ(read->valid_bytes, db->shard(s).wal_bytes());
  }
}

TEST(ShardedServerTest, DurableEpochAdvancesOnFlushAndCheckpoint) {
  // Under SyncPolicy::kNone a commit's epoch is not yet durable; the
  // explicit fsync of Flush() (and of Checkpoint()'s barrier) makes it
  // durable, so every participant reports it with its durable seq.
  for (const bool checkpoint : {false, true}) {
    SCOPED_TRACE(checkpoint ? "Checkpoint" : "Flush");
    ShardedServerOptions options = Opt(2);
    options.durability.wal.sync = SyncPolicy::kNone;
    auto db = MustOpen(
        ScratchDir(checkpoint ? "epoch_ckpt" : "epoch_flush"), options);
    ObjectId from = 1;
    std::vector<Update> batch;
    for (int j = 0; j < 3; ++j) {
      const double d = static_cast<double>(j + 1);
      batch.push_back(Update::NewObject(OidOn(0, 2, from), 0.0, Vec{d, 0.0},
                                        Vec{0.0, 1.0}));
      batch.push_back(Update::NewObject(OidOn(1, 2, from), 0.0, Vec{0.0, d},
                                        Vec{1.0, 0.0}));
    }
    ASSERT_TRUE(db->Commit(batch).ok());
    ASSERT_EQ(db->shard(0).epoch(), 1u);
    ASSERT_TRUE((checkpoint ? db->Checkpoint() : db->Flush()).ok());
    for (const ShardHealth& health : db->Health()) {
      EXPECT_FALSE(health.degraded);
      EXPECT_EQ(health.durable_seq, 3u) << "shard " << health.shard;
      EXPECT_EQ(health.durable_epoch, 1u) << "shard " << health.shard;
    }
  }
}

TEST(ShardedServerTest, MisshapenQueryTrajectoryIsRefusedBeforeTheJournal) {
  const std::string dir = ScratchDir("bad_query");
  auto db = MustOpen(dir, Opt(4));
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  ASSERT_EQ(*db->AddKnn("hub", hub, 2), 0);
  std::vector<uint64_t> bytes;
  for (size_t s = 0; s < 4; ++s) bytes.push_back(db->shard(s).wal_bytes());
  for (const Trajectory& bad :
       {Trajectory::Stationary(0.0, Vec{0.0, 0.0, 0.0}), Trajectory()}) {
    EXPECT_EQ(db->AddKnn("bad", bad, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db->AddWithin("bad", bad, 9.0).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(db->live_queries().size(), 1u);
  for (size_t s = 0; s < 4; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_FALSE(db->shard(s).degraded());
    EXPECT_EQ(db->shard(s).wal_bytes(), bytes[s]);
    EXPECT_EQ(db->shard(s).next_query_id(), 1);
    EXPECT_EQ(db->shard(s).live_queries().size(), 1u);
    EXPECT_EQ(db->shard(s).server().query_count(), 1u);
  }
  // The refusals consumed nothing: the next registration takes id 1.
  EXPECT_EQ(*db->AddWithin("hub", hub, 9.0), 1);
}

TEST(ShardedServerTest, MisshapenUpdateFailsTheWholeCommitWithoutAnEpoch) {
  const std::string dir = ScratchDir("bad_update");
  auto db = MustOpen(dir, Opt(4));
  const std::vector<std::vector<Update>> fleet = FleetBatches(8);
  ASSERT_TRUE(db->Commit(fleet[0]).ok());  // Epoch 1.
  std::vector<uint64_t> bytes;
  for (size_t s = 0; s < 4; ++s) bytes.push_back(db->shard(s).wal_bytes());
  const uint64_t seq = db->seq();

  std::vector<Update> batch = fleet[1];
  batch.insert(batch.begin() + 2, Update::NewObject(100, 2.0,
                                                    Vec{0.0, 0.0, 0.0},
                                                    Vec{1.0, 0.0, 0.0}));
  std::vector<Status> statuses;
  EXPECT_EQ(db->Commit(batch, &statuses).code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(statuses.size(), batch.size());
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(db->seq(), seq);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(db->shard(s).wal_bytes(), bytes[s]) << "shard " << s;
  }

  // No epoch was burnt: the next good commit is stamped with epoch 2.
  ASSERT_TRUE(db->Commit(fleet[1]).ok());
  uint64_t max_epoch = 0;
  for (size_t s = 0; s < 4; ++s) {
    max_epoch = std::max(max_epoch, db->shard(s).epoch());
  }
  EXPECT_EQ(max_epoch, 2u);
}

// ---------------------------------------------------------------------------
// Cross-shard epoch healing: every Commit is stamped with a global epoch
// on every participating shard; recovery computes the largest epoch fully
// present everywhere and rolls ahead-running shards back to it.

TEST(ShardedServerTest, TornEpochFrameOnOneShardHealsToLastFullBatch) {
  const std::string dir = ScratchDir("torn_epoch");
  std::vector<uint64_t> after;  // shard 1's WAL size after each commit
  {
    auto db = MustOpen(dir, Opt(2));
    const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
    ASSERT_TRUE(db->AddKnn("hub", hub, 4).ok());
    ObjectId from = 1;
    for (int j = 0; j < 3; ++j) {
      const double d = static_cast<double>(j + 1);
      const std::vector<Update> batch = {
          Update::NewObject(OidOn(0, 2, from), 0.0, Vec{d, 0.0},
                            Vec{0.0, 0.0}),
          Update::NewObject(OidOn(1, 2, from), 0.0, Vec{0.0, d},
                            Vec{0.0, 0.0})};
      ASSERT_TRUE(db->Commit(batch).ok());
      after.push_back(db->shard(1).wal_bytes());
    }
  }
  // Tear shard 1 a few bytes INTO the second batch's frame. Its recovery
  // drops the torn tail, so that epoch is absent there while shard 0
  // still holds it (and the third) — the consistent cut is batch 1, and
  // shard 0 must be rolled back to it.
  const fs::path wal = NewestWal(fs::path(dir) / ShardSubdir(1));
  ASSERT_FALSE(wal.empty());
  ASSERT_GT(fs::file_size(wal), after[0] + 5);
  fs::resize_file(wal, after[0] + 5);

  const uint64_t runs_before = obs::M().recovery_runs->Value();
  auto db = MustOpen(dir, Opt(0));
  EXPECT_TRUE(db->recovered());
  EXPECT_EQ(db->seq(), 2u);           // exactly one whole batch survived
  EXPECT_EQ(db->shard(0).seq(), 1u);  // rolled back, not ahead
  EXPECT_EQ(db->shard(1).seq(), 1u);
  // The torn tail is reported by the shard that had one; the rollback of
  // shard 0 is not a torn tail.
  EXPECT_TRUE(db->shard(1).open_info().truncated_tail);
  EXPECT_FALSE(db->shard(0).open_info().truncated_tail);
  // Each shard recovered once, and the rolled-back shard once more.
  EXPECT_EQ(obs::M().recovery_runs->Value(), runs_before + 3);
  // The registration predates the cut on every shard and survives whole.
  EXPECT_EQ(db->live_queries().size(), 1u);
}

TEST(ShardedServerTest, DivergentEpochReopenRollsAheadShardBack) {
  const std::string dir = ScratchDir("epoch_rollback");
  uint64_t cut_bytes = 0;
  {
    auto db = MustOpen(dir, Opt(2));
    ObjectId from = 1;
    for (int j = 0; j < 3; ++j) {
      const double d = static_cast<double>(j + 1);
      const std::vector<Update> batch = {
          Update::NewObject(OidOn(0, 2, from), 0.0, Vec{d, 0.0},
                            Vec{0.0, 0.0}),
          Update::NewObject(OidOn(1, 2, from), 0.0, Vec{0.0, d},
                            Vec{0.0, 0.0})};
      ASSERT_TRUE(db->Commit(batch).ok());
      if (j == 0) cut_bytes = db->shard(1).wal_bytes();
    }
  }
  // Shard 1 loses batches 2 and 3 CLEANLY (cut exactly at a record
  // boundary, so its own log replays without repair); shard 0 still holds
  // both epochs and is the one healing must truncate. Shard 0 also ends
  // in a torn frame, which its first recovery repairs.
  fs::resize_file(NewestWal(fs::path(dir) / ShardSubdir(1)), cut_bytes);
  const fs::path ahead = NewestWal(fs::path(dir) / ShardSubdir(0));
  fs::resize_file(ahead, fs::file_size(ahead) + 3);

  const uint64_t rollbacks_before = obs::M().shard_epoch_rollbacks->Value();
  const uint64_t runs_before = obs::M().recovery_runs->Value();
  auto db = MustOpen(dir, Opt(0));
  EXPECT_EQ(db->seq(), 2u);
  EXPECT_EQ(db->shard(0).seq(), 1u);
  EXPECT_EQ(db->shard(1).seq(), 1u);
  // Exactly one shard was rolled back, and the metric says so.
  EXPECT_EQ(obs::M().shard_epoch_rollbacks->Value(), rollbacks_before + 1);
  // Two recoveries, plus one of the rolled-back shard's truncated log.
  EXPECT_EQ(obs::M().recovery_runs->Value(), runs_before + 3);
  // The rollback keeps the torn-tail report of shard 0's first recovery.
  EXPECT_TRUE(db->shard(0).open_info().truncated_tail);
  EXPECT_FALSE(db->shard(1).open_info().truncated_tail);
}

TEST(ShardedServerTest, ReopenAfterRollbackReplaysCleanly) {
  const std::string dir = ScratchDir("epoch_resume");
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  uint64_t cut_bytes = 0;
  {
    auto db = MustOpen(dir, Opt(2));
    ObjectId from = 1;
    for (int j = 0; j < 2; ++j) {
      const double d = static_cast<double>(j + 1);
      ASSERT_TRUE(db->Commit({Update::NewObject(OidOn(0, 2, from), 0.0,
                                                Vec{d, 0.0}, Vec{0.0, 0.0}),
                              Update::NewObject(OidOn(1, 2, from), 0.0,
                                                Vec{0.0, d}, Vec{0.0, 0.0})})
                      .ok());
      if (j == 0) cut_bytes = db->shard(1).wal_bytes();
    }
  }
  fs::resize_file(NewestWal(fs::path(dir) / ShardSubdir(1)), cut_bytes);

  const uint64_t rollbacks_before = obs::M().shard_epoch_rollbacks->Value();
  QueryId knn_id = 0;
  std::set<ObjectId> answer;
  {
    // First reopen heals (one rollback), then the database must accept
    // new cross-shard work on the healed prefix as if nothing happened.
    auto db = MustOpen(dir, Opt(0));
    ASSERT_EQ(db->seq(), 2u);
    EXPECT_EQ(obs::M().shard_epoch_rollbacks->Value(), rollbacks_before + 1);
    auto knn = db->AddKnn("hub", hub, 8);
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    knn_id = *knn;
    ObjectId from = 100;  // clear of the surviving batch-1 oids
    for (int j = 0; j < 2; ++j) {
      const double d = static_cast<double>(j + 10);
      ASSERT_TRUE(db->Commit({Update::NewObject(OidOn(0, 2, from), 0.0,
                                                Vec{d, 0.0}, Vec{0.0, 0.0}),
                              Update::NewObject(OidOn(1, 2, from), 0.0,
                                                Vec{0.0, d}, Vec{0.0, 0.0})})
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    db->AdvanceTo(0.0);
    answer = db->Answer(knn_id);
    EXPECT_EQ(db->seq(), 6u);
  }
  // Second reopen: the logs are consistent now — no further rollback,
  // and the post-rollback commits replay bit-identically.
  auto db = MustOpen(dir, Opt(0));
  EXPECT_EQ(db->seq(), 6u);
  EXPECT_EQ(obs::M().shard_epoch_rollbacks->Value(), rollbacks_before + 1);
  EXPECT_EQ(db->live_queries().size(), 1u);
  db->AdvanceTo(0.0);
  EXPECT_EQ(db->Answer(knn_id), answer);
}

// ---------------------------------------------------------------------------
// Per-shard graceful degradation: a shard that fails I/O degrades alone;
// healthy shards keep committing, and reads stay exact on them.

TEST(ShardedServerTest, DegradedShardPartialReadsStayExactOnHealthyShards) {
  FaultInjectionEnv env;
  ShardedServerOptions options = Opt(2);
  options.durability.env = &env;
  options.durability.wal.sync = SyncPolicy::kEveryRecord;
  auto db = MustOpen(ScratchDir("degraded_reads"), options);

  ObjectId from = 1;
  const ObjectId a0 = OidOn(0, 2, from);
  const ObjectId b1 = OidOn(1, 2, from);
  const ObjectId c1 = OidOn(1, 2, from);
  const ObjectId d0 = OidOn(0, 2, from);
  const ObjectId e1 = OidOn(1, 2, from);
  const ObjectId g0 = OidOn(0, 2, from);
  const ObjectId h1 = OidOn(1, 2, from);

  // Geometry chosen so membership is unambiguous whichever way the
  // threshold is read: in-objects sit within distance (and squared
  // distance) 5 of the origin, out-objects past 80.
  const Trajectory hub = Trajectory::Stationary(0.0, Vec{0.0, 0.0});
  auto within = db->AddWithin("hub", hub, 25.0);
  ASSERT_TRUE(within.ok());
  ASSERT_TRUE(db->Commit({Update::NewObject(a0, 0.0, Vec{1.0, 0.0},
                                            Vec{0.0, 0.0}),
                          Update::NewObject(b1, 0.0, Vec{0.0, 2.0},
                                            Vec{0.0, 0.0})})
                  .ok());
  db->AdvanceTo(0.0);
  EXPECT_EQ(db->Answer(*within), (std::set<ObjectId>{a0, b1}));

  // Fail shard 1's very next I/O operation: the commit below is routed
  // there alone, so exactly that shard degrades.
  env.SetPlan({/*fail_op=*/1, FaultKind::kEio});
  const Status broken = db->Commit(
      {Update::NewObject(c1, 0.0, Vec{0.0, 3.0}, Vec{0.0, 0.0})});
  EXPECT_EQ(broken.code(), StatusCode::kUnavailable) << broken.ToString();
  EXPECT_TRUE(env.injected());

  const std::vector<ShardHealth> health = db->Health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_FALSE(health[0].degraded);
  EXPECT_TRUE(health[0].cause.ok());
  EXPECT_TRUE(health[1].degraded);
  EXPECT_FALSE(health[1].cause.ok());

  // Healthy-shard commits still go through...
  const uint64_t seq_before = db->seq();
  ASSERT_TRUE(db->Commit({Update::NewObject(d0, 0.0, Vec{2.0, 0.0},
                                            Vec{0.0, 0.0})})
                  .ok());
  // ...while anything touching the degraded shard is refused up front —
  // alone or mixed into a batch — without applying the healthy part.
  EXPECT_EQ(db->ApplyUpdate(Update::NewObject(e1, 0.0, Vec{0.0, 90.0},
                                              Vec{0.0, 0.0}))
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db->Commit({Update::NewObject(g0, 0.0, Vec{3.0, 0.0},
                                          Vec{0.0, 0.0}),
                        Update::NewObject(h1, 0.0, Vec{0.0, 4.0},
                                          Vec{0.0, 0.0})})
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db->seq(), seq_before + 1);  // only d0's commit landed

  // Partial reads: the healthy shards' contribution is exact (a0 and d0
  // are live on shard 0; b1 is shard 1's state at its failure point), and
  // the degraded set names exactly shard 1.
  const PartialAnswer partial = db->AnswerPartial(*within);
  EXPECT_EQ(partial.degraded_shards, (std::vector<size_t>{1}));
  EXPECT_EQ(partial.members, (std::set<ObjectId>{a0, b1, d0}));
  EXPECT_EQ(db->Answer(*within), partial.members);
}

TEST(ShardedServerTest, FlushReportsTheFirstFailingShardInShardOrder) {
  FaultInjectionEnv env;
  ShardedServerOptions options = Opt(3);
  options.durability.env = &env;
  options.durability.wal.sync = SyncPolicy::kEveryRecord;
  auto db = MustOpen(ScratchDir("flush_order"), options);

  // Degrade shard 2, then shard 1: each commit routes to that shard alone,
  // so the next I/O operation is that shard's.
  ObjectId from = 1;
  for (const size_t shard : {2u, 1u}) {
    env.SetPlan({/*fail_op=*/1, FaultKind::kEio});
    EXPECT_EQ(db->ApplyUpdate(Update::NewObject(OidOn(shard, 3, from), 0.0,
                                                Vec{1.0, 0.0}, Vec{0.0, 0.0}))
                  .code(),
              StatusCode::kUnavailable);
    EXPECT_TRUE(env.injected());
  }
  // Both failing shards' flushes run; the verdict names the lower shard,
  // whatever order the parallel flushes finished in.
  const Status flushed = db->Flush();
  EXPECT_EQ(flushed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(flushed.message().rfind(ShardSubdir(1) + ": ", 0), 0u)
      << flushed.ToString();
  EXPECT_FALSE(db->Health()[0].degraded);
}

// ---------------------------------------------------------------------------
// WorkPool: fork/join Run(n, body).

TEST(WorkPoolTest, RunCallsEveryIndexExactlyOnce) {
  WorkPool pool(3);
  std::vector<std::atomic<size_t>> calls(200);
  pool.Run(calls.size(), [&calls](size_t i) {
    calls[i].fetch_add(1, std::memory_order_relaxed);
  });
  // Run returns only after every body FINISHED.
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].load(), 1u) << "index " << i;
  }
  pool.Run(0, [](size_t) { FAIL() << "Run(0) called its body"; });
}

TEST(WorkPoolTest, OneIndexRunsOnTheCallingThread) {
  WorkPool pool(2);
  std::thread::id ran_on;
  pool.Run(1, [&ran_on](size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(WorkPoolTest, NestedRunOnSingleThreadCompletes) {
  // Each caller runs its own unclaimed indices, so a body issuing Run on
  // the same 1-thread pool cannot deadlock.
  WorkPool pool(1);
  std::atomic<size_t> ran{0};
  pool.Run(4, [&](size_t) {
    pool.Run(8, [&ran](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(ran.load(), 32u);
}

TEST(WorkPoolTest, ConcurrentJobsEachRunEveryIndex) {
  // The shape of a Commit racing an AdvanceTo: several threads each issue
  // many small jobs on one pool at once. Each job's slots are plain
  // writes, read after Run returns, so TSan checks the join's ordering.
  WorkPool pool(2);
  constexpr size_t kCallers = 4;
  constexpr size_t kJobs = 500;
  std::vector<size_t> bad_jobs(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &bad_jobs, c] {
      for (size_t job = 0; job < kJobs; ++job) {
        size_t slots[3] = {0, 0, 0};
        pool.Run(3, [&slots, job](size_t i) { slots[i] += job + 1; });
        for (const size_t slot : slots) {
          if (slot != job + 1) ++bad_jobs[c];
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad_jobs[c], 0u) << "caller " << c;
  }
}

// ---------------------------------------------------------------------------
// AnswerCell seqlock.

TEST(AnswerCellTest, PublishReadRoundTrip) {
  AnswerCell cell;
  double time = -1.0;
  std::vector<RankedCandidate> entries;
  cell.Read(&time, &entries);
  EXPECT_EQ(time, 0.0);
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(cell.version(), 0u);

  cell.Publish(1.5, {{7, 0.25}, {3, 0.5}, {9, 0.5}});
  cell.Read(&time, &entries);
  EXPECT_EQ(time, 1.5);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].oid, 7u);
  EXPECT_EQ(entries[0].value, 0.25);
  EXPECT_EQ(entries[2].oid, 9u);
  EXPECT_EQ(cell.version(), 1u);

  // Shrinking replaces, never appends.
  cell.Publish(2.0, {{1, 4.0}});
  cell.Read(&time, &entries);
  EXPECT_EQ(time, 2.0);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].oid, 1u);
  EXPECT_EQ(cell.version(), 2u);
}

TEST(AnswerCellTest, GrowthPreservesEveryPublish) {
  AnswerCell cell;
  double time = 0.0;
  std::vector<RankedCandidate> entries;
  for (size_t n = 1; n <= 100; ++n) {
    std::vector<RankedCandidate> published;
    for (size_t j = 0; j < n; ++j) {
      published.push_back(
          {static_cast<ObjectId>(j + 1), static_cast<double>(n * 1000 + j)});
    }
    cell.Publish(static_cast<double>(n), published);
    cell.Read(&time, &entries);
    ASSERT_EQ(entries.size(), n);
    EXPECT_EQ(time, static_cast<double>(n));
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(entries[j].oid, static_cast<ObjectId>(j + 1));
      ASSERT_EQ(entries[j].value, static_cast<double>(n * 1000 + j));
    }
  }
}

TEST(AnswerCellTest, ReadersNeverObserveTornSnapshots) {
  AnswerCell cell;
  constexpr size_t kPublishes = 4000;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<uint64_t> reads{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      double time = 0.0;
      std::vector<RankedCandidate> entries;
      // One more pass after the writer stops, so even a reader that never
      // got a timeslice mid-run (single-core boxes) validates the final
      // published state.
      bool final_pass = false;
      while (!final_pass) {
        final_pass = done.load(std::memory_order_relaxed);
        cell.Read(&time, &entries);
        // Every published state is self-describing: time i carries
        // exactly (i % 17) + 1 entries with values i * 32 + j. A torn
        // copy cannot satisfy all three relations at once.
        const size_t i = static_cast<size_t>(time);
        ASSERT_EQ(time, static_cast<double>(i));
        if (i == 0) {
          ASSERT_TRUE(entries.empty());
        } else {
          ASSERT_EQ(entries.size(), i % 17 + 1) << "i=" << i;
          for (size_t j = 0; j < entries.size(); ++j) {
            ASSERT_EQ(entries[j].oid, static_cast<ObjectId>(j + 1));
            ASSERT_EQ(entries[j].value, static_cast<double>(i * 32 + j));
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t i = 1; i <= kPublishes; ++i) {
    std::vector<RankedCandidate> entries;
    for (size_t j = 0; j < i % 17 + 1; ++j) {
      entries.push_back(
          {static_cast<ObjectId>(j + 1), static_cast<double>(i * 32 + j)});
    }
    cell.Publish(static_cast<double>(i), entries);
    if (i % 256 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(cell.version(), kPublishes);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace modb
