#include "gdist/region.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/past_engine.h"
#include "gdist/builtin.h"
#include "queries/region_queries.h"
#include "queries/within.h"
#include "workload/generator.h"

namespace modb {
namespace {

ConvexPolygon County() {
  // An irregular convex "county".
  return ConvexPolygon::Hull({Vec{-50.0, -30.0}, Vec{40.0, -45.0},
                              Vec{70.0, 10.0}, Vec{30.0, 55.0},
                              Vec{-40.0, 40.0}});
}

TEST(RegionGDistanceTest, MatchesPointwiseGeometry) {
  const ConvexPolygon county = County();
  const RegionGDistance gdist(county);
  Rng rng(606);
  for (int trial = 0; trial < 25; ++trial) {
    Trajectory object = Trajectory::Linear(
        0.0, RandomPoint(rng, 2, -150.0, 150.0),
        RandomVelocity(rng, 2, 2.0, 15.0));
    if (trial % 3 == 0) {
      ASSERT_TRUE(
          object.AddTurn(7.0, RandomVelocity(rng, 2, 2.0, 15.0)).ok());
    }
    const GCurve curve = gdist.Curve(object);
    ASSERT_TRUE(curve.is_polynomial());
    for (double t = 0.0; t <= 20.0; t += 0.37) {
      const double expected =
          county.SignedSquaredDistance(object.PositionAt(t));
      EXPECT_NEAR(curve.Eval(t), expected, 1e-6 * (1.0 + std::fabs(expected)))
          << "trial " << trial << " t=" << t;
    }
  }
}

TEST(RegionGDistanceTest, CurveIsContinuousAndPiecewiseQuadratic) {
  const RegionGDistance gdist(County());
  const Trajectory crossing =
      Trajectory::Linear(0.0, Vec{-200.0, 0.0}, Vec{10.0, 0.5});
  const GCurve curve = gdist.Curve(crossing);
  EXPECT_TRUE(curve.poly().IsContinuous(1e-6));
  EXPECT_GT(curve.poly().NumPieces(), 2u);  // Feature changes happened.
  for (const auto& piece : curve.poly().pieces()) {
    EXPECT_LE(piece.poly.degree(), 2);
  }
}

TEST(RegionGDistanceTest, SignFlipsExactlyAtBoundary) {
  const ConvexPolygon square = ConvexPolygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  const RegionGDistance gdist(square);
  // Enters through x=0 at t=5, exits through x=10 at t=15.
  const Trajectory object =
      Trajectory::Linear(0.0, Vec{-5.0, 5.0}, Vec{1.0, 0.0});
  const GCurve curve = gdist.Curve(object);
  EXPECT_GT(curve.Eval(4.9), 0.0);
  EXPECT_NEAR(curve.Eval(5.0), 0.0, 1e-9);
  EXPECT_LT(curve.Eval(10.0), 0.0);
  EXPECT_NEAR(curve.Eval(15.0), 0.0, 1e-9);
  EXPECT_GT(curve.Eval(15.1), 0.0);
  // Mid-square: 5 away from every edge.
  EXPECT_NEAR(curve.Eval(10.0), -25.0, 1e-9);
}

TEST(RegionQueriesTest, Example3EnteringQuery) {
  // Example 3: aircraft entering the county between τ1 and τ2.
  const ConvexPolygon county = County();
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  // AC1 flies through the county, entering through the left boundary.
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{-150.0, 0.0},
                                          Vec{20.0, 0.0}))
                  .ok());
  // AC2 stays far north: never enters.
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{0.0, 300.0},
                                          Vec{5.0, 0.0}))
                  .ok());
  // AC3 starts inside: present but not "entering".
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(3, 0.0, Vec{0.0, 0.0}, Vec{0.0, 1.0}))
          .ok());

  const std::vector<RegionEntry> entries =
      EnteringRegion(mod, county, 0.0, 20.0);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].oid, 1);
  // AC1 crosses the left boundary where the segment from (-50,-30) to
  // (-40,40) meets y=0: x = -50 + 10 * (30/70) ≈ -45.714 -> t ≈ 5.214.
  EXPECT_NEAR(entries[0].time, (150.0 - 45.0 - 5.0 / 7.0) / 20.0, 1e-6);

  // Membership timeline agrees with geometry at sample times.
  const AnswerTimeline inside =
      InsideRegionTimeline(mod, county, TimeInterval(0.0, 20.0));
  for (double t : {1.0, 6.0, 9.0, 19.0}) {
    std::set<ObjectId> expected;
    for (const auto& [oid, trajectory] : mod.objects()) {
      if (county.Contains(trajectory.PositionAt(t))) expected.insert(oid);
    }
    EXPECT_EQ(inside.AnswerAt(t), expected) << "t=" << t;
  }
}

TEST(RegionQueriesTest, ReentryCountsTwice) {
  const ConvexPolygon square = ConvexPolygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{-5.0, 5.0},
                                          Vec{1.0, 0.0}))
                  .ok());
  // Crosses in at 5, out at 15; turns around at 20 and re-enters at 25.
  ASSERT_TRUE(mod.Apply(Update::ChangeDirection(1, 20.0, Vec{-1.0, 0.0})).ok());
  const std::vector<RegionEntry> entries =
      EnteringRegion(mod, square, 0.0, 40.0);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NEAR(entries[0].time, 5.0, 1e-9);
  EXPECT_NEAR(entries[1].time, 25.0, 1e-9);
}

TEST(RegionQueriesTest, RandomFleetMembershipOracle) {
  const ConvexPolygon county = County();
  const RandomModOptions options{.num_objects = 15,
                                 .dim = 2,
                                 .box_lo = -120.0,
                                 .box_hi = 120.0,
                                 .speed_min = 3.0,
                                 .speed_max = 12.0,
                                 .seed = 607};
  const MovingObjectDatabase mod = RandomMod(options);
  const AnswerTimeline inside =
      InsideRegionTimeline(mod, county, TimeInterval(0.0, 25.0));
  for (const auto& segment : inside.segments()) {
    if (segment.interval.Length() < 1e-6) continue;
    const double t = 0.5 * (segment.interval.lo + segment.interval.hi);
    std::set<ObjectId> expected;
    for (const auto& [oid, trajectory] : mod.objects()) {
      if (county.Contains(trajectory.PositionAt(t))) expected.insert(oid);
    }
    EXPECT_EQ(segment.answer, expected) << "t=" << t;
  }
}

// The reference: the within timeline of a past sweep that admits every
// object, which PastWithin's pruned sweep must reproduce exactly.
AnswerTimeline FullSweepWithin(const MovingObjectDatabase& mod,
                               GDistancePtr gdist, double threshold,
                               TimeInterval interval) {
  PastQueryEngine engine(mod, std::move(gdist), interval);
  WithinKernel kernel(&engine.state(), /*sentinel_oid=*/-1000, threshold);
  engine.Run();
  kernel.timeline().Finish(interval.hi);
  return std::move(kernel.timeline());
}

// Bit-identical: the same segment bounds and the same member sets.
void ExpectSameTimeline(const AnswerTimeline& pruned,
                        const AnswerTimeline& full) {
  ASSERT_EQ(pruned.segments().size(), full.segments().size());
  for (size_t i = 0; i < full.segments().size(); ++i) {
    const AnswerTimeline::Segment& a = pruned.segments()[i];
    const AnswerTimeline::Segment& b = full.segments()[i];
    EXPECT_EQ(a.interval.lo, b.interval.lo) << "segment " << i;
    EXPECT_EQ(a.interval.hi, b.interval.hi) << "segment " << i;
    EXPECT_EQ(a.answer, b.answer) << "segment " << i;
  }
}

// Objects alive in `interval` that `gdist` rejects for `threshold`.
size_t Rejected(const MovingObjectDatabase& mod, const GDistance& gdist,
                double threshold, TimeInterval interval) {
  size_t rejected = 0;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.Domain().Intersects(interval)) continue;
    if (!gdist.MayReach(trajectory, interval, threshold)) ++rejected;
  }
  return rejected;
}

// Seeded fleets churned by new/terminate/chdir updates; region and
// Euclidean within queries over short (0.05) and long intervals, at
// threshold 0 ("inside") and 25 ("within 5 of").
TEST(PastWithinAdmissionTest, ChurnedFleetsMatchFullSweep) {
  const ConvexPolygon county = County();
  size_t rejected = 0;
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const RandomModOptions options{.num_objects = 40,
                                   .dim = 2,
                                   .box_lo = -250.0,
                                   .box_hi = 250.0,
                                   .speed_min = 2.0,
                                   .speed_max = 14.0,
                                   .seed = 700 + seed};
    UpdateStreamOptions stream;
    stream.count = 80;
    stream.mean_gap = 0.4;
    stream.chdir_weight = 0.6;
    stream.new_weight = 0.2;
    stream.terminate_weight = 0.2;
    stream.seed = 800 + seed;
    const MovingObjectDatabase mod = RandomHistoryMod(options, stream);

    Rng rng(900 + seed);
    const Trajectory query = Trajectory::Linear(
        0.0, RandomPoint(rng, 2, -100.0, 100.0),
        RandomVelocity(rng, 2, 1.0, 6.0));
    const std::vector<GDistancePtr> gdists = {
        std::make_shared<RegionGDistance>(county),
        std::make_shared<SquaredEuclideanGDistance>(query),
        std::make_shared<SquaredEuclideanGDistance>(
            Trajectory::Stationary(0.0, Vec{20.0, -10.0}))};
    std::vector<TimeInterval> intervals = {TimeInterval(0.0, 32.0)};
    for (int round = 0; round < 3; ++round) {
      const double lo = rng.Uniform(0.0, 28.0);
      intervals.push_back(TimeInterval(lo, lo + 0.05));
      intervals.push_back(TimeInterval(lo, lo + 6.0));
    }
    for (const TimeInterval& interval : intervals) {
      for (const GDistancePtr& gdist : gdists) {
        for (const double threshold : {0.0, 25.0, 900.0}) {
          SCOPED_TRACE(testing::Message()
                       << "seed " << seed << " " << gdist->name()
                       << " threshold " << threshold << " interval "
                       << interval.ToString());
          ExpectSameTimeline(
              PastWithin(mod, gdist, threshold, interval),
              FullSweepWithin(mod, gdist, threshold, interval));
          rejected += Rejected(mod, *gdist, threshold, interval);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 10u * 7 * 3 * 3);
  EXPECT_GT(rejected, 0u);  // The pruned path really ran.
}

TEST(PastWithinAdmissionTest, BoundaryAndLifetimeEdgeCases) {
  const ConvexPolygon square = ConvexPolygon::Rectangle(0.0, 0.0, 10.0, 10.0);
  const double ulp_outside =
      std::nextafter(10.0, std::numeric_limits<double>::infinity());
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  // Parked exactly on an edge, on a vertex, and one ulp outside.
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(1, 0.0, Vec{10.0, 5.0}, Vec{0.0, 0.0}))
          .ok());
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(2, 0.0, Vec{10.0, 10.0}, Vec{0.0, 0.0}))
          .ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(3, 0.0, Vec{ulp_outside, 5.0},
                                          Vec{0.0, 0.0}))
                  .ok());
  // Inside, terminated mid-interval.
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(4, 0.0, Vec{5.0, 5.0}, Vec{0.1, 0.0}))
          .ok());
  // Far away, drifting by: never near at threshold 0 or 25.
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(6, 0.0, Vec{300.0, 300.0}, Vec{1.0, 0.0}))
          .ok());
  // Created mid-interval just outside, heading in.
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(5, 4.0, Vec{12.0, 5.0}, Vec{-1.0, 0.0}))
          .ok());
  ASSERT_TRUE(mod.Apply(Update::TerminateObject(4, 8.0)).ok());
  ASSERT_TRUE(mod.Apply(Update::ChangeDirection(5, 9.0, Vec{1.0, 1.0})).ok());

  const RegionGDistance region(square);
  const TimeInterval interval(0.0, 20.0);
  for (const ObjectId oid : {1, 2, 3, 4, 5}) {
    EXPECT_TRUE(region.MayReach(*mod.Find(oid), interval, 0.0)) << oid;
  }
  EXPECT_FALSE(region.MayReach(*mod.Find(6), interval, 25.0));

  const GDistancePtr gdist = std::make_shared<RegionGDistance>(square);
  const AnswerTimeline inside = InsideRegionTimeline(mod, square, interval);
  ExpectSameTimeline(inside, FullSweepWithin(mod, gdist, 0.0, interval));
  EXPECT_EQ(inside.AnswerAt(6.0).count(4), 1u);
  EXPECT_EQ(inside.AnswerAt(8.5).count(4), 0u);
  EXPECT_EQ(inside.AnswerAt(6.0).count(5), 1u);
  ExpectSameTimeline(PastWithin(mod, gdist, 25.0, interval),
                     FullSweepWithin(mod, gdist, 25.0, interval));

  // An interval in which nothing comes near: everything is rejected and
  // the timeline is one empty segment either way.
  const ConvexPolygon far = ConvexPolygon::Rectangle(900.0, 900.0, 910.0,
                                                     910.0);
  EXPECT_EQ(Rejected(mod, RegionGDistance(far), 25.0, interval), 6u);
  const AnswerTimeline empty = InsideRegionTimeline(mod, far, interval);
  ExpectSameTimeline(
      empty, FullSweepWithin(mod, std::make_shared<RegionGDistance>(far), 0.0,
                             interval));
  ASSERT_EQ(empty.segments().size(), 1u);
  EXPECT_TRUE(empty.segments()[0].answer.empty());

  // The Euclidean override on the same fleet, around a parked query.
  const GDistancePtr point = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{10.0, 5.0}));
  EXPECT_FALSE(point->MayReach(*mod.Find(6), interval, 25.0));
  for (const double threshold : {0.0, 4.0, 25.0}) {
    SCOPED_TRACE(testing::Message() << "euclid threshold " << threshold);
    ExpectSameTimeline(PastWithin(mod, point, threshold, interval),
                       FullSweepWithin(mod, point, threshold, interval));
  }
}

}  // namespace
}  // namespace modb
