#include "queries/query_server.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "gdist/builtin.h"
#include "workload/generator.h"

namespace modb {
namespace {

GDistancePtr OriginDistance() {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
}

// Reference answers against a mirror database.
std::set<ObjectId> BruteKnn(const MovingObjectDatabase& mod,
                            const GDistance& gdist, size_t k, double t) {
  std::vector<std::pair<double, ObjectId>> values;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.DefinedAt(t)) continue;
    values.emplace_back(gdist.Curve(trajectory).Eval(t), oid);
  }
  std::sort(values.begin(), values.end());
  std::set<ObjectId> answer;
  for (size_t i = 0; i < values.size() && i < k; ++i) {
    answer.insert(values[i].second);
  }
  return answer;
}

std::set<ObjectId> BruteWithin(const MovingObjectDatabase& mod,
                               const GDistance& gdist, double threshold,
                               double t) {
  std::set<ObjectId> answer;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (trajectory.DefinedAt(t) &&
        gdist.Curve(trajectory).Eval(t) <= threshold) {
      answer.insert(oid);
    }
  }
  return answer;
}

TEST(QueryServerTest, MixedKernelsShareOneEngine) {
  const RandomModOptions options{
      .num_objects = 20, .dim = 2, .box_lo = -200.0, .box_hi = 200.0,
      .seed = 41};
  MovingObjectDatabase mod = RandomMod(options);
  const GDistancePtr gdist = OriginDistance();

  QueryServer server(mod, 0.0);
  const QueryId nearest3 = server.AddKnn("origin", gdist, 3);
  const QueryId nearest1 = server.AddKnn("origin", gdist, 1);
  const QueryId close = server.AddWithin("origin", gdist, 150.0 * 150.0);
  const QueryId closer = server.AddWithin("origin", gdist, 80.0 * 80.0);
  EXPECT_EQ(server.engine_count(), 1u);  // All four share one sweep.
  EXPECT_EQ(server.query_count(), 4u);

  for (double t : {5.0, 10.0, 20.0, 40.0}) {
    server.AdvanceTo(t);
    EXPECT_EQ(server.Answer(nearest3), BruteKnn(mod, *gdist, 3, t))
        << "t=" << t;
    EXPECT_EQ(server.Answer(nearest1), BruteKnn(mod, *gdist, 1, t));
    EXPECT_EQ(server.Answer(close),
              BruteWithin(mod, *gdist, 150.0 * 150.0, t));
    EXPECT_EQ(server.Answer(closer),
              BruteWithin(mod, *gdist, 80.0 * 80.0, t));
  }
}

TEST(QueryServerTest, DistinctGDistancesGetDistinctEngines) {
  const MovingObjectDatabase mod =
      RandomMod({.num_objects = 10, .dim = 2, .seed = 42});
  QueryServer server(mod, 0.0);
  server.AddKnn("origin", OriginDistance(), 1);
  server.AddKnn("north",
                std::make_shared<SquaredEuclideanGDistance>(
                    Trajectory::Stationary(0.0, Vec{0.0, 500.0})),
                1);
  EXPECT_EQ(server.engine_count(), 2u);
}

TEST(QueryServerTest, UpdatesFanOutToAllEngines) {
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{10.0, 0.0},
                                          Vec{0.0, 0.0}))
                  .ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{0.0, 490.0},
                                          Vec{0.0, 0.0}))
                  .ok());
  auto origin = OriginDistance();
  auto north = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 500.0}));
  QueryServer server(mod, 0.0);
  const QueryId near_origin = server.AddKnn("origin", origin, 1);
  const QueryId near_north = server.AddKnn("north", north, 1);
  EXPECT_EQ(server.Answer(near_origin), (std::set<ObjectId>{1}));
  EXPECT_EQ(server.Answer(near_north), (std::set<ObjectId>{2}));

  // o3 appears near the origin: only the origin query changes.
  ASSERT_TRUE(server
                  .ApplyUpdate(Update::NewObject(3, 2.0, Vec{1.0, 0.0},
                                                 Vec{0.0, 0.0}))
                  .ok());
  EXPECT_EQ(server.Answer(near_origin), (std::set<ObjectId>{3}));
  EXPECT_EQ(server.Answer(near_north), (std::set<ObjectId>{2}));

  // o2 terminates: the north query falls back to the nearest remaining.
  ASSERT_TRUE(server.ApplyUpdate(Update::TerminateObject(2, 3.0)).ok());
  EXPECT_EQ(server.Answer(near_north).size(), 1u);
  EXPECT_EQ(server.Answer(near_north).count(2), 0u);
}

TEST(QueryServerTest, LateRegistrationSeesCurrentState) {
  const MovingObjectDatabase mod =
      RandomMod({.num_objects = 15, .dim = 2, .seed = 43});
  const GDistancePtr gdist = OriginDistance();
  QueryServer server(mod, 0.0);
  const QueryId early = server.AddKnn("origin", gdist, 2);
  server.AdvanceTo(25.0);
  // A second query on the same engine attaches mid-sweep and must adopt
  // the current answer.
  const QueryId late = server.AddKnn("origin", gdist, 2);
  EXPECT_EQ(server.Answer(late), server.Answer(early));
  EXPECT_EQ(server.Answer(late), BruteKnn(mod, *gdist, 2, 25.0));
}

TEST(QueryServerTest, ChaosAgainstBruteForce) {
  const RandomModOptions options{
      .num_objects = 18, .dim = 2, .box_lo = -300.0, .box_hi = 300.0,
      .speed_max = 12.0, .seed = 44};
  const UpdateStreamOptions stream{.count = 60, .mean_gap = 0.8, .seed = 45};
  const MovingObjectDatabase initial = RandomMod(options);
  const std::vector<Update> updates =
      RandomUpdateStream(initial, options, stream);

  const GDistancePtr gdist = OriginDistance();
  QueryServer server(initial, 0.0);
  const QueryId knn = server.AddKnn("origin", gdist, 4);
  const QueryId within = server.AddWithin("origin", gdist, 200.0 * 200.0);

  MovingObjectDatabase mirror = initial;
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(server.ApplyUpdate(updates[i]).ok());
    ASSERT_TRUE(mirror.Apply(updates[i]).ok());
    if (i % 6 == 0) {
      const double next =
          (i + 1 < updates.size()) ? updates[i + 1].time : server.now() + 1.0;
      if (next <= server.now()) continue;
      const double t = server.now() + std::min(1e-7, 0.5 * (next - server.now()));
      server.AdvanceTo(t);
      EXPECT_EQ(server.Answer(knn), BruteKnn(mirror, *gdist, 4, t))
          << "update " << i;
      EXPECT_EQ(server.Answer(within),
                BruteWithin(mirror, *gdist, 200.0 * 200.0, t));
    }
  }
  EXPECT_EQ(server.engine_count(), 1u);
}

// A shard publishes each answer member's value from the query's sweep
// (QuerySweep(id).CurveValue); it must equal GDistance::ValueAt on the
// member's trajectory bit for bit, after every kind of update.
TEST(QueryServerTest, SweepCurveValuesMatchValueAtBitwise) {
  const RandomModOptions options{
      .num_objects = 24, .dim = 2, .box_lo = -300.0, .box_hi = 300.0,
      .speed_max = 12.0, .seed = 61};
  const UpdateStreamOptions stream{.count = 80, .mean_gap = 0.5, .seed = 62};
  const MovingObjectDatabase initial = RandomMod(options);
  const std::vector<Update> updates =
      RandomUpdateStream(initial, options, stream);

  const GDistancePtr gdist = OriginDistance();
  QueryServer server(initial, 0.0);
  const QueryId knn = server.AddKnn("origin", gdist, 5);
  const QueryId within = server.AddWithin("origin", gdist, 220.0 * 220.0);
  std::set<UpdateKind> kinds;
  size_t compared = 0;
  for (const Update& update : updates) {
    ASSERT_TRUE(server.ApplyUpdate(update).ok()) << update.ToString();
    kinds.insert(update.kind);
    const double t = server.now();
    for (const QueryId id : {knn, within}) {
      const SweepState& sweep = server.QuerySweep(id);
      for (const ObjectId oid : server.Answer(id)) {
        const Trajectory* trajectory = server.mod().Find(oid);
        ASSERT_NE(trajectory, nullptr) << "o" << oid;
        EXPECT_EQ(std::bit_cast<uint64_t>(sweep.CurveValue(oid, t)),
                  std::bit_cast<uint64_t>(gdist->ValueAt(*trajectory, t)))
            << "query " << id << " o" << oid << " after "
            << update.ToString();
        ++compared;
      }
    }
  }
  EXPECT_EQ(kinds.size(), 3u) << "the stream must hold new, chdir and "
                                 "terminate updates";
  EXPECT_GT(compared, updates.size());
}

// Two queries under one gdist_key keep sharing a single sweep across an
// update fan-out, and both answers stay correct afterwards — the sharing
// must survive mutation, not just the initial build.
TEST(QueryServerTest, SharedSweepAnswersSurviveUpdateFanOut) {
  const RandomModOptions options{
      .num_objects = 14, .dim = 2, .box_lo = -250.0, .box_hi = 250.0,
      .speed_max = 10.0, .seed = 51};
  const UpdateStreamOptions stream{.count = 30, .mean_gap = 0.6, .seed = 52};
  const MovingObjectDatabase initial = RandomMod(options);
  const std::vector<Update> updates =
      RandomUpdateStream(initial, options, stream);

  const GDistancePtr gdist = OriginDistance();
  QueryServer server(initial, 0.0);
  const QueryId knn = server.AddKnn("origin", gdist, 3);
  const QueryId within = server.AddWithin("origin", gdist, 180.0 * 180.0);
  ASSERT_EQ(server.engine_count(), 1u);

  MovingObjectDatabase mirror = initial;
  for (const Update& update : updates) {
    ASSERT_TRUE(server.ApplyUpdate(update).ok()) << update.ToString();
    ASSERT_TRUE(mirror.Apply(update).ok());
  }
  // Still one engine: fan-out must not have split the group.
  EXPECT_EQ(server.engine_count(), 1u);

  const double t = updates.back().time + 2.0;
  server.AdvanceTo(t);
  EXPECT_EQ(server.Answer(knn), BruteKnn(mirror, *gdist, 3, t));
  EXPECT_EQ(server.Answer(within),
            BruteWithin(mirror, *gdist, 180.0 * 180.0, t));
}

// A query registered AFTER updates were applied (not merely after an
// advance) attaches to the already-mutated sweep and answers correctly.
TEST(QueryServerTest, AddQueryAfterUpdatesSeesMutatedState) {
  const RandomModOptions options{
      .num_objects = 12, .dim = 2, .box_lo = -200.0, .box_hi = 200.0,
      .seed = 53};
  const UpdateStreamOptions stream{.count = 20, .mean_gap = 0.5, .seed = 54};
  const MovingObjectDatabase initial = RandomMod(options);
  const std::vector<Update> updates =
      RandomUpdateStream(initial, options, stream);

  const GDistancePtr gdist = OriginDistance();
  QueryServer server(initial, 0.0);
  const QueryId early = server.AddKnn("origin", gdist, 2);
  MovingObjectDatabase mirror = initial;
  for (const Update& update : updates) {
    ASSERT_TRUE(server.ApplyUpdate(update).ok());
    ASSERT_TRUE(mirror.Apply(update).ok());
  }

  const QueryId late_knn = server.AddKnn("origin", gdist, 2);
  const QueryId late_within = server.AddWithin("origin", gdist, 150.0 * 150.0);
  EXPECT_EQ(server.engine_count(), 1u);

  const double t = server.now();
  EXPECT_EQ(server.Answer(late_knn), server.Answer(early));
  EXPECT_EQ(server.Answer(late_knn), BruteKnn(mirror, *gdist, 2, t));
  EXPECT_EQ(server.Answer(late_within),
            BruteWithin(mirror, *gdist, 150.0 * 150.0, t));

  // And the late queries keep tracking through further advances.
  server.AdvanceTo(t + 5.0);
  EXPECT_EQ(server.Answer(late_knn), BruteKnn(mirror, *gdist, 2, t + 5.0));
}

// Failure paths stay clean: an update that precedes server time is
// rejected with a status (no crash, no partial application).
TEST(QueryServerTest, StaleUpdateRejectedCleanly) {
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(1, 0.0, Vec{5.0, 0.0}, Vec{0.0, 0.0})).ok());
  QueryServer server(mod, 0.0);
  const GDistancePtr gdist = OriginDistance();
  const QueryId nearest = server.AddKnn("origin", gdist, 1);
  server.AdvanceTo(10.0);

  const Status stale = server.ApplyUpdate(
      Update::NewObject(2, 5.0, Vec{1.0, 0.0}, Vec{0.0, 0.0}));
  EXPECT_FALSE(stale.ok());
  // The rejected update left no trace: same answer, same clock.
  EXPECT_EQ(server.now(), 10.0);
  EXPECT_EQ(server.Answer(nearest), (std::set<ObjectId>{1}));

  // The server remains usable after the rejection.
  ASSERT_TRUE(server
                  .ApplyUpdate(Update::NewObject(3, 12.0, Vec{0.5, 0.0},
                                                 Vec{0.0, 0.0}))
                  .ok());
  EXPECT_EQ(server.Answer(nearest), (std::set<ObjectId>{3}));
}

// Everything a rejected update must leave untouched: the server clock,
// every engine clock, every answer and every timeline.
struct ServerState {
  double now;
  std::vector<double> engine_now;
  std::vector<std::set<ObjectId>> answers;
  std::vector<std::vector<AnswerTimeline::Segment>> timelines;
};

ServerState Capture(QueryServer& server, const std::vector<QueryId>& ids) {
  ServerState state;
  state.now = server.now();
  server.VisitEngines([&](const std::string&, FutureQueryEngine& engine) {
    state.engine_now.push_back(engine.now());
  });
  for (const QueryId id : ids) {
    state.answers.push_back(server.Answer(id));
    state.timelines.push_back(server.Timeline(id).segments());
  }
  return state;
}

void ExpectSameState(const ServerState& got, const ServerState& want) {
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.engine_now, want.engine_now);
  EXPECT_EQ(got.answers, want.answers);
  ASSERT_EQ(got.timelines.size(), want.timelines.size());
  for (size_t q = 0; q < got.timelines.size(); ++q) {
    ASSERT_EQ(got.timelines[q].size(), want.timelines[q].size()) << "q" << q;
    for (size_t i = 0; i < got.timelines[q].size(); ++i) {
      EXPECT_EQ(got.timelines[q][i].interval.lo,
                want.timelines[q][i].interval.lo);
      EXPECT_EQ(got.timelines[q][i].interval.hi,
                want.timelines[q][i].interval.hi);
      EXPECT_EQ(got.timelines[q][i].answer, want.timelines[q][i].answer);
    }
  }
}

// The server validates an update before it advances any sweep to the
// update's time. An update stamped after now() that the MOD refuses must
// leave no trace, so a later AdvanceTo to a time between the old clock
// and the refused stamp still works.
TEST(QueryServerTest, RejectedLaterUpdateChangesNothing) {
  const RandomModOptions options{
      .num_objects = 16, .dim = 2, .box_lo = -100.0, .box_hi = 100.0,
      .seed = 47};
  const MovingObjectDatabase mod = RandomMod(options);
  const GDistancePtr origin = OriginDistance();
  const GDistancePtr east = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{60.0, 0.0}));
  QueryServer server(mod, 0.0);
  const std::vector<QueryId> ids = {
      server.AddKnn("origin", origin, 3),
      server.AddWithin("origin", origin, 50.0 * 50.0),
      server.AddKnn("east", east, 2)};
  ASSERT_EQ(server.engine_count(), 2u);
  server.AdvanceTo(5.0);
  const ServerState before = Capture(server, ids);

  // (a) chdir of an unknown oid; (b) new() on an existing oid. Both are
  // stamped well after now().
  const ObjectId existing = mod.objects().begin()->first;
  for (const Update& rejected :
       {Update::ChangeDirection(9999, 20.0, Vec{1.0, 0.0}),
        Update::NewObject(existing, 20.0, Vec{0.0, 0.0}, Vec{1.0, 1.0})}) {
    EXPECT_FALSE(server.ApplyUpdate(rejected).ok()) << rejected.ToString();
    ExpectSameState(Capture(server, ids), before);
  }

  server.AdvanceTo(12.0);
  EXPECT_EQ(server.now(), 12.0);
  EXPECT_EQ(server.Answer(ids[0]), BruteKnn(mod, *origin, 3, 12.0));
  EXPECT_EQ(server.Answer(ids[1]),
            BruteWithin(mod, *origin, 50.0 * 50.0, 12.0));
  EXPECT_EQ(server.Answer(ids[2]), BruteKnn(mod, *east, 2, 12.0));
}

// Every engine group reads the server's one MOD, held on the heap, so the
// borrowed reference survives moving the server (DurableQueryServer::Open
// moves one).
TEST(QueryServerTest, EnginesShareTheServerModAcrossAMove) {
  const RandomModOptions options{
      .num_objects = 20, .dim = 2, .box_lo = -100.0, .box_hi = 100.0,
      .seed = 53};
  MovingObjectDatabase mirror = RandomMod(options);
  const GDistancePtr origin = OriginDistance();
  const GDistancePtr east = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{60.0, 0.0}));
  QueryServer original(mirror, 0.0);
  const QueryId nearest = original.AddKnn("origin", origin, 3);
  const QueryId ring = original.AddWithin("east", east, 40.0 * 40.0);
  ASSERT_EQ(original.engine_count(), 2u);
  QueryServer server(std::move(original));

  const ObjectId turned = mirror.objects().begin()->first;
  const ObjectId ended = std::next(mirror.objects().begin())->first;
  for (const Update& update :
       {Update::NewObject(500, 1.0, Vec{2.0, 2.0}, Vec{1.0, 0.0}),
        Update::ChangeDirection(turned, 2.0, Vec{-3.0, 1.0}),
        Update::TerminateObject(ended, 3.0)}) {
    ASSERT_TRUE(server.ApplyUpdate(update).ok()) << update.ToString();
    ASSERT_TRUE(mirror.Apply(update).ok());
  }
  for (const double t : {3.5, 8.0, 20.0}) {
    server.AdvanceTo(t);
    EXPECT_EQ(server.Answer(nearest), BruteKnn(mirror, *origin, 3, t))
        << "t=" << t;
    EXPECT_EQ(server.Answer(ring), BruteWithin(mirror, *east, 40.0 * 40.0, t))
        << "t=" << t;
  }
  size_t groups = 0;
  server.VisitEngines([&](const std::string&, FutureQueryEngine& engine) {
    EXPECT_EQ(&engine.mod(), &server.mod());
    ++groups;
  });
  EXPECT_EQ(groups, 2u);
}

TEST(QueryServerTest, VisitEnginesSeesEveryGroupOnce) {
  const MovingObjectDatabase mod =
      RandomMod({.num_objects = 8, .dim = 2, .seed = 55});
  QueryServer server(mod, 0.0);
  server.AddKnn("origin", OriginDistance(), 1);
  server.AddWithin("origin", OriginDistance(), 100.0);
  server.AddKnn("north",
                std::make_shared<SquaredEuclideanGDistance>(
                    Trajectory::Stationary(0.0, Vec{0.0, 500.0})),
                1);
  std::set<std::string> visited;
  server.VisitEngines([&](const std::string& key, FutureQueryEngine& engine) {
    EXPECT_TRUE(engine.started());
    visited.insert(key);
  });
  EXPECT_EQ(visited, (std::set<std::string>{"origin", "north"}));
}

TEST(QueryServerTest, TimelineAccumulates) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{10.0}, Vec{-1.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{2.0}, Vec{0.0})).ok());
  QueryServer server(mod, 0.0);
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0}));
  const QueryId nearest = server.AddKnn("origin", gdist, 1);
  server.AdvanceTo(20.0);
  // Crossings at 8 and 12: at least two recorded segments so far.
  EXPECT_GE(server.Timeline(nearest).segments().size(), 2u);
  EXPECT_EQ(server.TotalStats().swaps, 2u);
}

TEST(QueryServerTest, RemoveQueryLeavesOthersIntact) {
  const RandomModOptions options{
      .num_objects = 18, .dim = 2, .box_lo = -200.0, .box_hi = 200.0,
      .seed = 61};
  MovingObjectDatabase mod = RandomMod(options);
  const GDistancePtr gdist = OriginDistance();

  QueryServer server(mod, 0.0);
  const QueryId nearest3 = server.AddKnn("origin", gdist, 3);
  const QueryId nearest1 = server.AddKnn("origin", gdist, 1);
  const QueryId close = server.AddWithin("origin", gdist, 150.0 * 150.0);
  EXPECT_EQ(server.engine_count(), 1u);

  ASSERT_TRUE(server.RemoveQuery(nearest1).ok());
  EXPECT_EQ(server.query_count(), 2u);
  EXPECT_EQ(server.engine_count(), 1u);  // Two kernels still share it.
  EXPECT_EQ(server.RemoveQuery(nearest1).code(), StatusCode::kNotFound);

  // The survivors keep answering correctly — also after further updates
  // (the within kernel's sentinel withdrawal must not corrupt the order).
  ASSERT_TRUE(
      server
          .ApplyUpdate(Update::NewObject(500, 1.0, Vec{5.0, 5.0}, Vec{1.0, 0.0}))
          .ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(500, 1.0, Vec{5.0, 5.0}, Vec{1.0, 0.0}))
                  .ok());
  for (double t : {2.0, 10.0, 25.0}) {
    server.AdvanceTo(t);
    EXPECT_EQ(server.Answer(nearest3), BruteKnn(mod, *gdist, 3, t))
        << "t=" << t;
    EXPECT_EQ(server.Answer(close),
              BruteWithin(mod, *gdist, 150.0 * 150.0, t))
        << "t=" << t;
  }
}

TEST(QueryServerTest, RemovingLastKernelTearsDownEngine) {
  const RandomModOptions options{.num_objects = 10, .dim = 2, .seed = 62};
  MovingObjectDatabase mod = RandomMod(options);
  QueryServer server(mod, 0.0);
  const QueryId a = server.AddKnn("origin", OriginDistance(), 2);
  const QueryId b = server.AddWithin("origin", OriginDistance(), 100.0);
  const QueryId other = server.AddKnn(
      "north",
      std::make_shared<SquaredEuclideanGDistance>(
          Trajectory::Stationary(0.0, Vec{0.0, 500.0})),
      1);
  EXPECT_EQ(server.engine_count(), 2u);

  ASSERT_TRUE(server.RemoveQuery(a).ok());
  EXPECT_EQ(server.engine_count(), 2u);
  ASSERT_TRUE(server.RemoveQuery(b).ok());
  EXPECT_EQ(server.engine_count(), 1u);  // "origin" group torn down.

  // The untouched group still works, and the key can be reused afresh.
  server.AdvanceTo(3.0);
  EXPECT_FALSE(server.Answer(other).empty());
  const QueryId reborn = server.AddKnn("origin", OriginDistance(), 1);
  EXPECT_EQ(server.engine_count(), 2u);
  server.AdvanceTo(4.0);
  EXPECT_EQ(server.Answer(reborn).size(), 1u);
}

TEST(QueryServerTest, RemoveWithinWithdrawsSentinelFromSharedSweep) {
  // Regression shape: a within kernel's sentinel lives inside the shared
  // order; removing the query must not disturb the k-NN ranks computed by
  // the kernel that stays behind.
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{10.0}, Vec{-1.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{30.0}, Vec{-1.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(3, 0.0, Vec{50.0}, Vec{-1.0})).ok());
  QueryServer server(mod, 0.0);
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0}));
  const QueryId nearest = server.AddKnn("origin", gdist, 2);
  const QueryId ring = server.AddWithin("origin", gdist, 400.0);
  server.AdvanceTo(5.0);
  ASSERT_TRUE(server.RemoveQuery(ring).ok());
  // Objects pass the origin at t=10, 30, 50; the 2-NN set changes along
  // the way and must stay correct without the sentinel in the order.
  for (double t : {8.0, 20.0, 35.0, 60.0}) {
    server.AdvanceTo(t);
    EXPECT_EQ(server.Answer(nearest), BruteKnn(mod, *gdist, 2, t))
        << "t=" << t;
  }
}

}  // namespace
}  // namespace modb
