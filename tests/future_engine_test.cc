#include "core/future_engine.h"

#include <memory>

#include <gtest/gtest.h>

#include "gdist/builtin.h"
#include "queries/knn.h"
#include "queries/within.h"
#include "workload/generator.h"

namespace modb {
namespace {

GDistancePtr OriginDistance(size_t dim) {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec::Zero(dim)));
}

// THE central correctness property (Definition 4/5 + §5): the eager future
// engine, fed updates one at a time, must produce exactly the answers the
// lazy approach gets by waiting for all updates and running a past sweep
// over the final database.
TEST(FutureEngineTest, EagerEqualsLazyOnRandomStreams) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const RandomModOptions mod_options{
        .num_objects = 20, .dim = 2, .speed_max = 15.0, .seed = 1000 + seed};
    const UpdateStreamOptions stream_options{
        .count = 60, .mean_gap = 1.0, .seed = 2000 + seed};
    const MovingObjectDatabase initial = RandomMod(mod_options);
    const std::vector<Update> updates =
        RandomUpdateStream(initial, mod_options, stream_options);
    const double end_time = updates.back().time + 10.0;
    GDistancePtr gdist = OriginDistance(2);
    const size_t k = 3;

    // Eager: maintain through the updates.
    MovingObjectDatabase live = initial;
    FutureQueryEngine engine(live, gdist, /*start_time=*/0.0);
    KnnKernel kernel(&engine.state(), k);
    engine.Start();
    for (const Update& update : updates) {
      ASSERT_TRUE(engine.ApplyUpdate(live, update).ok()) << update.ToString();
    }
    engine.AdvanceTo(end_time);
    kernel.timeline().Finish(end_time);
    const AnswerTimeline eager = std::move(kernel.timeline());

    // Lazy: past query over the fully-updated database.
    MovingObjectDatabase final_mod = initial;
    ASSERT_TRUE(final_mod.ApplyAll(updates).ok());
    const AnswerTimeline lazy =
        PastKnn(final_mod, gdist, k, TimeInterval(0.0, end_time));

    // Compare at segment midpoints of both timelines.
    for (const AnswerTimeline* timeline : {&eager, &lazy}) {
      for (const auto& segment : timeline->segments()) {
        if (segment.interval.Length() < 1e-7) continue;
        const double t = 0.5 * (segment.interval.lo + segment.interval.hi);
        EXPECT_EQ(eager.AnswerAt(t), lazy.AnswerAt(t))
            << "seed=" << seed << " t=" << t;
      }
    }
    engine.state().CheckInvariants();
  }
}

TEST(FutureEngineTest, NewObjectEntersAnswer) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{10.0}, Vec{0.0})).ok());
  FutureQueryEngine engine(mod, OriginDistance(1), 0.0);
  KnnKernel kernel(&engine.state(), 1);
  engine.Start();
  EXPECT_EQ(kernel.Current(), (std::set<ObjectId>{1}));
  ASSERT_TRUE(
      engine.ApplyUpdate(mod, Update::NewObject(2, 5.0, Vec{1.0}, Vec{0.0}))
          .ok());
  EXPECT_EQ(kernel.Current(), (std::set<ObjectId>{2}));
}

TEST(FutureEngineTest, TerminateLeavesAnswer) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{1.0}, Vec{0.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{5.0}, Vec{0.0})).ok());
  FutureQueryEngine engine(mod, OriginDistance(1), 0.0);
  KnnKernel kernel(&engine.state(), 1);
  engine.Start();
  EXPECT_EQ(kernel.Current(), (std::set<ObjectId>{1}));
  ASSERT_TRUE(engine.ApplyUpdate(mod, Update::TerminateObject(1, 3.0)).ok());
  EXPECT_EQ(kernel.Current(), (std::set<ObjectId>{2}));
  EXPECT_FALSE(engine.state().ContainsObject(1));
}

TEST(FutureEngineTest, ChdirCancelsPredictedExchange) {
  // Figure 2's first half: o1 would overtake o2 at t=8, but a chdir at t=4
  // cancels the event.
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{10.0}, Vec{-1.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{2.0}, Vec{0.0})).ok());
  FutureQueryEngine engine(mod, OriginDistance(1), 0.0);
  KnnKernel kernel(&engine.state(), 1);
  engine.Start();
  ASSERT_TRUE(
      engine.ApplyUpdate(mod, Update::ChangeDirection(1, 4.0, Vec{0.0})).ok());
  engine.AdvanceTo(30.0);
  EXPECT_EQ(kernel.Current(), (std::set<ObjectId>{2}));
  EXPECT_EQ(engine.stats().swaps, 0u);
}

TEST(FutureEngineTest, UpdateBeforeSweepTimeRejected) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{1.0}, Vec{0.0})).ok());
  FutureQueryEngine engine(mod, OriginDistance(1), 0.0);
  engine.Start();
  engine.AdvanceTo(10.0);
  EXPECT_EQ(
      engine.ApplyUpdate(mod, Update::ChangeDirection(1, 5.0, Vec{1.0})).code(),
      StatusCode::kFailedPrecondition);
}

TEST(FutureEngineTest, InvalidUpdateSurfacesModError) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{1.0}, Vec{0.0})).ok());
  FutureQueryEngine engine(mod, OriginDistance(1), 0.0);
  engine.Start();
  EXPECT_EQ(engine.ApplyUpdate(mod, Update::TerminateObject(99, 5.0)).code(),
            StatusCode::kNotFound);
  // Refused before the sweep moved: the clock stays where it was.
  EXPECT_EQ(engine.now(), 0.0);
  // Engine remains usable.
  EXPECT_TRUE(
      engine.ApplyUpdate(mod, Update::ChangeDirection(1, 6.0, Vec{1.0})).ok());
}

TEST(FutureEngineTest, StartAfterLastUpdateRequired) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 5.0, Vec{1.0}, Vec{0.0})).ok());
  EXPECT_DEATH(FutureQueryEngine(mod, OriginDistance(1), 2.0),
               "at or after");
}

// Theorem 10: a chdir on the query trajectory rebuilds curves without
// re-sorting; results must match a freshly initialized engine.
TEST(FutureEngineTest, QueryChdirMatchesFreshEngine) {
  const RandomModOptions mod_options{
      .num_objects = 25, .dim = 2, .speed_max = 12.0, .seed = 71};
  const MovingObjectDatabase mod = RandomMod(mod_options);

  // The query object moves, then turns at t=10.
  Trajectory query_before =
      Trajectory::Linear(0.0, Vec{50.0, 50.0}, Vec{-2.0, -3.0});
  Trajectory query_after = query_before;
  ASSERT_TRUE(query_after.AddTurn(10.0, Vec{4.0, 0.0}).ok());

  FutureQueryEngine engine(
      mod, std::make_shared<SquaredEuclideanGDistance>(query_before), 0.0);
  KnnKernel kernel(&engine.state(), 3);
  engine.Start();
  engine.AdvanceTo(10.0);
  engine.ChangeQueryGDistance(
      std::make_shared<SquaredEuclideanGDistance>(query_after));
  engine.AdvanceTo(50.0);
  engine.state().CheckInvariants();

  // Reference: a fresh past sweep with the full (turned) query trajectory.
  const AnswerTimeline reference =
      PastKnn(mod, std::make_shared<SquaredEuclideanGDistance>(query_after),
              3, TimeInterval(0.0, 50.0));
  kernel.timeline().Finish(50.0);
  for (const auto& segment : kernel.timeline().segments()) {
    if (segment.interval.Length() < 1e-7) continue;
    const double t = 0.5 * (segment.interval.lo + segment.interval.hi);
    EXPECT_EQ(kernel.timeline().AnswerAt(t), reference.AnswerAt(t))
        << "t=" << t;
  }
}

TEST(FutureEngineTest, WithinKernelTracksThresholdUnderUpdates) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{10.0}, Vec{-1.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{30.0}, Vec{0.0})).ok());
  FutureQueryEngine engine(mod, OriginDistance(1), 0.0);
  WithinKernel kernel(&engine.state(), /*sentinel_oid=*/-1, /*threshold=*/25.0);
  engine.Start();
  EXPECT_TRUE(kernel.Current().empty());
  engine.AdvanceTo(6.0);  // o1 reaches |x| = 5 at t = 5.
  EXPECT_EQ(kernel.Current(), (std::set<ObjectId>{1}));
  // o1 turns away at 6; it exits the disc at |x|=5 again: x = 4 + (t-6)v.
  ASSERT_TRUE(
      engine.ApplyUpdate(mod, Update::ChangeDirection(1, 6.0, Vec{2.0})).ok());
  engine.AdvanceTo(20.0);
  EXPECT_TRUE(kernel.Current().empty());
}

}  // namespace
}  // namespace modb
