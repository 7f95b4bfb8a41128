#include "gdist/region.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/naive.h"
#include "common/rng.h"
#include "core/past_engine.h"
#include "gdist/builtin.h"
#include "geom/curve_pool.h"
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

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Golden fixture inputs: the county pentagon and an irregular octagon;
// a straight crossing, a turny terminated trajectory with a stationary
// stretch, one that ends with a zero-length piece, and one that passes
// exactly through a county vertex.
std::vector<ConvexPolygon> GoldenRegions() {
  return {County(),
          ConvexPolygon::Hull({Vec{-31.5, -12.25}, Vec{-17.75, -36.0},
                               Vec{8.5, -41.25}, Vec{33.0, -22.5},
                               Vec{41.75, 6.5}, Vec{27.25, 33.75},
                               Vec{-3.5, 44.0}, Vec{-29.0, 21.5}})};
}

std::vector<Trajectory> GoldenTrajectories() {
  const Trajectory crossing =
      Trajectory::Linear(0.0, Vec{-200.0, 3.25}, Vec{10.0, 0.5});
  Trajectory turny = Trajectory::Linear(0.0, Vec{-80.0, -70.0}, Vec{6.0, 4.5});
  EXPECT_TRUE(turny.AddTurn(7.5, Vec{3.0, -2.25}).ok());
  EXPECT_TRUE(turny.AddTurn(12.0, Vec{-5.5, 1.0}).ok());
  EXPECT_TRUE(turny.AddTurn(19.25, Vec{0.0, 0.0}).ok());
  EXPECT_TRUE(turny.AddTurn(23.0, Vec{1.5, 6.0}).ok());
  EXPECT_TRUE(turny.Terminate(30.0).ok());
  Trajectory zero_tail =
      Trajectory::Linear(1.0, Vec{60.0, 60.0}, Vec{-4.0, -3.0});
  EXPECT_TRUE(zero_tail.AddTurn(9.0, Vec{2.0, -7.0}).ok());
  EXPECT_TRUE(zero_tail.AddTurn(16.0, Vec{-1.0, 1.0}).ok());
  EXPECT_TRUE(zero_tail.Terminate(16.0).ok());
  const Trajectory via_vertex =
      Trajectory::Linear(0.0, Vec{20.0, -55.0}, Vec{4.0, 2.0});
  return {crossing, turny, zero_tail, via_vertex};
}

// tests/testdata/region_curves_golden.txt holds every piece start,
// coefficient and domain end of the golden inputs' curves as computed by
// the Polynomial-based decomposition the fixed-size kernel replaced. The
// kernel must reproduce each one bit for bit.
TEST(RegionGDistanceTest, FullCurveMatchesGoldenFixture) {
  std::ifstream in(std::string(MODB_SOURCE_DIR) +
                   "/tests/testdata/region_curves_golden.txt");
  ASSERT_TRUE(in.good());
  struct Row {
    size_t region, object;
    bool end;
    std::vector<double> values;  // start, c0, c1, c2; or the domain end.
  };
  std::vector<Row> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Row row{};
    std::string token;
    fields >> row.region >> row.object;
    while (fields >> token) {
      if (token == "end") {
        row.end = true;
        continue;
      }
      // strtod reads hexadecimal floating point and "inf" exactly.
      row.values.push_back(std::strtod(token.c_str(), nullptr));
    }
    ASSERT_EQ(row.values.size(), row.end ? 1u : 4u) << line;
    golden.push_back(row);
  }

  size_t next = 0;
  const std::vector<ConvexPolygon> regions = GoldenRegions();
  const std::vector<Trajectory> trajectories = GoldenTrajectories();
  for (size_t r = 0; r < regions.size(); ++r) {
    for (size_t k = 0; k < trajectories.size(); ++k) {
      const GCurve curve = RegionGDistance(regions[r]).Curve(trajectories[k]);
      for (const PiecewisePoly::Piece& piece : curve.poly().pieces()) {
        ASSERT_LT(next, golden.size());
        const Row& row = golden[next++];
        ASSERT_EQ(row.region, r);
        ASSERT_EQ(row.object, k);
        ASSERT_FALSE(row.end) << "region " << r << " object " << k
                              << ": more pieces than the fixture";
        const double got[4] = {piece.start, piece.poly.coeff(0),
                               piece.poly.coeff(1), piece.poly.coeff(2)};
        for (size_t i = 0; i < 4; ++i) {
          EXPECT_EQ(Bits(got[i]), Bits(row.values[i]))
              << "region " << r << " object " << k << " piece at "
              << piece.start << " field " << i;
        }
      }
      ASSERT_LT(next, golden.size());
      const Row& end = golden[next++];
      ASSERT_TRUE(end.end) << "region " << r << " object " << k
                           << ": fewer pieces than the fixture";
      EXPECT_EQ(Bits(curve.poly().DomainEnd()), Bits(end.values[0]));
    }
  }
  EXPECT_EQ(next, golden.size());
}

// A strictly convex polygon of `n` vertices: increasing angles on a
// jittered circle.
ConvexPolygon RandomHull(Rng& rng, int n) {
  std::vector<Vec> points;
  for (int i = 0; i < n; ++i) {
    const double angle = 6.283185307179586 * (i + rng.Uniform(0.1, 0.9)) / n;
    const double radius = rng.Uniform(15.0, 60.0);
    points.push_back(Vec{rng.Uniform(-5.0, 5.0) + radius * std::cos(angle),
                         rng.Uniform(-5.0, 5.0) + radius * std::sin(angle)});
  }
  return ConvexPolygon::Hull(points);
}

// A trajectory of up to 12 pieces with turns on a 0.5 grid, some
// stationary or axis-parallel; it may end unbounded, after its last turn,
// or exactly at it (a zero-length last piece).
Trajectory RandomHistory(Rng& rng) {
  auto velocity = [&rng]() {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        return Vec{0.0, 0.0};
      case 1:
        return Vec{rng.Uniform(-9.0, 9.0), 0.0};
      default:
        return RandomVelocity(rng, 2, 1.0, 12.0);
    }
  };
  double t = 0.5 * static_cast<double>(rng.UniformInt(0, 4));
  Trajectory trajectory =
      Trajectory::Linear(t, RandomPoint(rng, 2, -90.0, 90.0), velocity());
  const int64_t turns = rng.UniformInt(0, 11);
  for (int64_t i = 0; i < turns; ++i) {
    t += 0.5 * static_cast<double>(rng.UniformInt(1, 6));
    EXPECT_TRUE(trajectory.AddTurn(t, velocity()).ok());
  }
  switch (rng.UniformInt(0, 2)) {
    case 0:
      if (turns > 0) {
        EXPECT_TRUE(trajectory.Terminate(t).ok());
      }
      break;
    case 1:
      EXPECT_TRUE(trajectory.Terminate(t + rng.Uniform(0.1, 4.0)).ok());
      break;
    default:
      break;
  }
  return trajectory;
}

// The windowed pooled curve is the full curve's pieces in effect
// somewhere in window ∩ domain (all of them when that is empty): the same
// starts and coefficient bits, ending where the last of them ends, so it
// covers window ∩ domain and every value there is the full curve's.
void ExpectWindowedEqualsFull(const RegionGDistance& gdist,
                              const Trajectory& trajectory,
                              TimeInterval window, Rng* rng, size_t* checked) {
  SCOPED_TRACE(testing::Message() << "window " << window.ToString()
                                  << "\ntrajectory " << trajectory.ToString());
  const GCurve curve = gdist.Curve(trajectory);
  const PiecewisePoly& full = curve.poly();
  PolySegPool pool;
  GCurve fallback;
  const PolySegPool::CurveId id =
      gdist.CurveIntoPool(&pool, trajectory, window, &fallback);
  ASSERT_NE(id, PolySegPool::kInvalidCurve);

  const TimeInterval clipped = window.Intersect(full.Domain());
  size_t first = 0;
  size_t last = full.NumPieces() - 1;
  if (!clipped.empty()) {
    first = full.PieceIndexAt(clipped.lo);
    last = full.PieceIndexAt(clipped.hi);
  }
  const PolySegPool::SegRange view = pool.View(id);
  ASSERT_EQ(view.count, last - first + 1);
  for (size_t i = 0; i < view.count; ++i) {
    const PiecewisePoly::Piece& piece = full.pieces()[first + i];
    const size_t s = view.first + i;
    EXPECT_EQ(Bits(view.starts[s]), Bits(piece.start)) << "piece " << i;
    EXPECT_EQ(Bits(view.c0[s]), Bits(piece.poly.coeff(0))) << "piece " << i;
    EXPECT_EQ(Bits(view.c1[s]), Bits(piece.poly.coeff(1))) << "piece " << i;
    EXPECT_EQ(Bits(view.c2[s]), Bits(piece.poly.coeff(2))) << "piece " << i;
  }
  const double end = last + 1 < full.NumPieces() ? full.pieces()[last + 1].start
                                                 : full.DomainEnd();
  EXPECT_EQ(Bits(view.domain_end), Bits(end));
  EXPECT_TRUE(pool.Domain(id).ContainsInterval(clipped));

  if (clipped.empty()) return;
  std::vector<double> probes = {clipped.lo, clipped.hi};
  for (size_t i = first; i <= last; ++i) {
    const double start = full.pieces()[i].start;
    probes.insert(probes.end(), {std::nextafter(start, -kInf), start,
                                 std::nextafter(start, kInf)});
  }
  const double hi = std::isfinite(clipped.hi) ? clipped.hi : clipped.lo + 10.0;
  for (int i = 0; i < 4; ++i) probes.push_back(rng->Uniform(clipped.lo, hi));
  for (const double t : probes) {
    if (!std::isfinite(t) || !clipped.Contains(t)) continue;
    const double value = full.Eval(t);
    EXPECT_EQ(Bits(pool.Eval(id, t)), Bits(value)) << "t=" << t;
    EXPECT_EQ(gdist.ValueAt(trajectory, t), value) << "t=" << t;
    ++*checked;
  }
}

TEST(RegionWindowTest, WindowedCurveIsTheFullCurvesPiecesInTheWindow) {
  Rng rng(2510);
  size_t checked = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const RegionGDistance gdist(
        RandomHull(rng, static_cast<int>(rng.UniformInt(3, 8))));
    const Trajectory trajectory = RandomHistory(rng);
    const PiecewisePoly full = gdist.Curve(trajectory).poly();
    const double lo = full.DomainStart();
    const double hi = std::isfinite(full.DomainEnd()) ? full.DomainEnd()
                                                       : lo + 40.0;
    std::vector<TimeInterval> windows = {
        TimeInterval::All(), TimeInterval::From(lo),
        TimeInterval(lo - 3.0, lo - 1.0),  // Before the domain: all pieces.
        TimeInterval(hi + 1.0, hi + 2.0),  // After a bounded domain too.
        TimeInterval(lo, lo), TimeInterval(hi, hi)};
    for (int i = 0; i < 4; ++i) {
      const double a = rng.Uniform(lo - 1.0, hi + 1.0);
      windows.push_back(TimeInterval(a, a + rng.Uniform(0.0, 0.1)));
      windows.push_back(TimeInterval(a, a + rng.Uniform(0.0, 8.0)));
      windows.push_back(TimeInterval(a, a));
      windows.push_back(TimeInterval::From(a));
    }
    // Windows that start or end exactly on a breakpoint.
    for (int i = 0; i < 3; ++i) {
      const double b = full.pieces()[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(full.NumPieces()) - 1))].start;
      windows.push_back(TimeInterval(b, b));
      windows.push_back(TimeInterval(b, b + rng.Uniform(0.0, 2.0)));
      windows.push_back(TimeInterval(b - rng.Uniform(0.0, 2.0), b));
      windows.push_back(TimeInterval::From(b));
    }
    for (const TimeInterval& window : windows) {
      ExpectWindowedEqualsFull(gdist, trajectory, window, &rng, &checked);
    }
  }
  EXPECT_GT(checked, 20000u);
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

// Objects with dozens of pieces before the query interval: the pruned
// sweep builds only the pieces in the interval, and its timeline must
// agree with the naive oracle's, which decomposes whole-history curves.
TEST(RegionQueriesTest, LongHistoryTimelineMatchesNaive) {
  const ConvexPolygon county = County();
  const RegionGDistance gdist(county);
  const RandomModOptions options{.num_objects = 30,
                                 .dim = 2,
                                 .box_lo = -120.0,
                                 .box_hi = 120.0,
                                 .speed_min = 2.0,
                                 .speed_max = 12.0,
                                 .seed = 2511};
  UpdateStreamOptions stream;
  stream.count = 1500;
  stream.mean_gap = 0.04;
  stream.chdir_weight = 0.96;
  stream.new_weight = 0.02;
  stream.terminate_weight = 0.02;
  stream.seed = 2512;
  const MovingObjectDatabase mod = RandomHistoryMod(options, stream);
  const double end = mod.last_update_time();
  const TimeInterval long_window(end - 4.0, end);
  size_t pieces_before = 0;
  for (const auto& [oid, trajectory] : mod.objects()) {
    for (const LinearPiece& piece : trajectory.pieces()) {
      if (piece.start < long_window.lo) ++pieces_before;
    }
  }
  EXPECT_GT(pieces_before, 30u * 35);

  size_t members = 0;
  for (const TimeInterval& window :
       {long_window, TimeInterval(end - 2.5, end - 2.45)}) {
    SCOPED_TRACE("window " + window.ToString());
    const AnswerTimeline inside = InsideRegionTimeline(mod, county, window);
    const NaiveResult naive = NaiveWithinTimeline(mod, gdist, 0.0, window);
    for (const AnswerTimeline* timeline : {&inside, &naive.timeline}) {
      for (const AnswerTimeline::Segment& segment : timeline->segments()) {
        if (segment.interval.Length() < 1e-6) continue;
        const double t = 0.5 * (segment.interval.lo + segment.interval.hi);
        EXPECT_EQ(inside.AnswerAt(t), naive.timeline.AnswerAt(t)) << "t=" << t;
        members += inside.AnswerAt(t).size();
      }
    }
  }
  EXPECT_GT(members, 0u);  // Some object is inside at some probe.
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
