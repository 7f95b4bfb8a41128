// GDistance::ValueAt against the curve it stands in for: for every builtin
// g-distance, the value at one instant must equal Curve(trajectory).Eval(t)
// bit for bit (the sign of an exact zero aside, which == ignores), and
// SnapshotKnnRanked's partial selection must return exactly what a full
// sort does.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gdist/builtin.h"
#include "gdist/region.h"
#include "geom/curve_pool.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace {

// Random 2-D trajectories whose turns and ends fall on a shared grid of
// times, so the two sides of a g-distance often turn at the same instant
// and a turn often sits exactly at the common domain end.
class ChurnedTrajectories {
 public:
  explicit ChurnedTrajectories(uint32_t seed) : rng_(seed) {}

  // `min_speed` > 0 keeps every piece moving (the interception
  // g-distances require it); `copy` (may be null) is a trajectory whose
  // velocity each piece adopts with probability 1/4, giving zero relative
  // velocity against it. The trajectory turns `extra_turns` plus 0-4
  // times.
  Trajectory Make(double start, double min_speed, double max_speed,
                  const Trajectory* copy, int extra_turns = 0) {
    Trajectory trajectory = Trajectory::Linear(
        start, Vec({Coord(), Coord()}),
        Velocity(start, min_speed, max_speed, copy));
    double t = start;
    const int turns = extra_turns + static_cast<int>(rng_() % 5);
    for (int i = 0; i < turns; ++i) {
      t = NextGridTime(t);
      EXPECT_TRUE(
          trajectory.AddTurn(t, Velocity(t, min_speed, max_speed, copy)).ok());
    }
    switch (rng_() % 4) {
      case 0:  // Terminated exactly at its last turn (or its start).
        if (turns > 0) {
          EXPECT_TRUE(trajectory.Terminate(t).ok());
        }
        break;
      case 1:
        EXPECT_TRUE(trajectory.Terminate(NextGridTime(t)).ok());
        break;
      default:  // Unbounded.
        break;
    }
    return trajectory;
  }

  Trajectory Stationary(double start) {
    return Trajectory::Stationary(start, Vec({Coord(), Coord()}));
  }

  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  uint32_t Next() { return rng_(); }

 private:
  // Grid steps of 0.5, so distinct trajectories share turn times.
  double NextGridTime(double t) {
    return std::floor(t * 2.0) / 2.0 + 0.5 * (1 + rng_() % 3);
  }
  double Coord() { return Uniform(-20.0, 20.0); }
  Vec Velocity(double t, double min_speed, double max_speed,
               const Trajectory* copy) {
    if (copy != nullptr && copy->DefinedAt(t) && rng_() % 4 == 0) {
      const Vec v = copy->VelocityAt(t);
      const double speed = std::sqrt(v.SquaredLength());
      if (speed >= min_speed && speed <= max_speed) return v;
    }
    const double angle = Uniform(0.0, 6.283185307179586);
    const double speed = Uniform(min_speed, max_speed);
    return Vec({speed * std::cos(angle), speed * std::sin(angle)});
  }

  std::mt19937 rng_;
};

// The instants ValueAt is checked at: the common domain start, every turn
// and end of either side and their neighbours one ulp away, each moved by
// `-shift` (a time-shifted g-distance reads the base curve at t + delta),
// plus random times; only those inside the curve's domain are kept. An
// unbounded curve is also checked at t = +∞.
std::vector<double> ProbeTimes(const Trajectory& object,
                               const Trajectory* other, const GCurve& curve,
                               double shift, ChurnedTrajectories* gen) {
  std::vector<double> events = {object.start_time(), object.end_time()};
  for (const LinearPiece& piece : object.pieces()) events.push_back(piece.start);
  if (other != nullptr) {
    events.push_back(other->start_time());
    events.push_back(other->end_time());
    for (const LinearPiece& piece : other->pieces()) {
      events.push_back(piece.start);
    }
  }
  std::vector<double> times;
  for (double event : events) {
    const double t = event - shift;
    times.insert(times.end(), {std::nextafter(t, -kInf), t,
                               std::nextafter(t, kInf)});
  }
  const TimeInterval domain = curve.Domain();
  const double hi = std::isfinite(domain.hi) ? domain.hi : domain.lo + 20.0;
  for (int i = 0; i < 8; ++i) times.push_back(gen->Uniform(domain.lo, hi));
  std::vector<double> kept;
  for (double t : times) {
    if (std::isfinite(t) && domain.Contains(t)) kept.push_back(t);
  }
  if (domain.hi == kInf) kept.push_back(kInf);
  return kept;
}

// Equal values (the sign of an exact zero aside) or the same bits, so a
// NaN only matches the very same NaN.
bool SameValue(double a, double b) {
  return a == b || std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectValueAtMatchesCurve(const GDistance& gdist, const Trajectory& object,
                               const Trajectory* other, double shift,
                               ChurnedTrajectories* gen, size_t* checked) {
  const GCurve curve = gdist.Curve(object);
  for (double t : ProbeTimes(object, other, curve, shift, gen)) {
    const double value = gdist.ValueAt(object, t);
    const double eval = curve.Eval(t);
    ASSERT_TRUE(SameValue(value, eval))
        << gdist.name() << " t=" << t << " ValueAt " << value << " Eval "
        << eval << "\nobject " << object.ToString()
        << (other != nullptr ? "\nother " + other->ToString() : "");
    ++*checked;
  }
}

TEST(ValueAtTest, EqualsCurveEvalForEveryBuiltin) {
  ChurnedTrajectories gen(20261017);
  ChurnedTrajectories long_gen(20261019);
  const Vec target({3.0, -4.0});
  const ConvexPolygon region = ConvexPolygon::Rectangle(-5.0, -5.0, 5.0, 5.0);
  size_t checked = 0;
  for (int iter = 0; iter < 300; ++iter) {
    // Every fourth query is stationary; others turn and may end.
    const Trajectory query = iter % 4 == 0
                                 ? gen.Stationary(gen.Uniform(0.0, 2.0))
                                 : gen.Make(gen.Uniform(0.0, 2.0), 0.0, 1.0,
                                            nullptr);
    const Trajectory object =
        gen.Make(std::floor(gen.Uniform(0.0, 4.0) * 2.0) / 2.0, 0.0, 3.0,
                 &query);
    if (object.Domain().Intersect(query.Domain()).empty()) continue;
    // A pursuer strictly faster than the query, for intercept_moving.
    const Trajectory pursuer =
        gen.Make(object.start_time(), 2.0, 3.0, nullptr);

    const auto euclid = std::make_shared<SquaredEuclideanGDistance>(query);
    const auto axis = std::make_shared<AxisDistanceGDistance>(query, 1);
    const double delta = 0.5 * (1 + gen.Next() % 4);
    const std::vector<std::pair<std::shared_ptr<const GDistance>, double>>
        on_query = {
            {euclid, 0.0},
            {axis, 0.0},
            {std::make_shared<TimeShiftedGDistance>(euclid, delta), delta},
            {std::make_shared<WeightedSumGDistance>(
                 std::vector<GDistancePtr>{euclid, axis},
                 std::vector<double>{0.75, 3.0}),
             0.0},
            {std::make_shared<ComposedGDistance>(Polynomial({-25.0, 0.0, 1.0}),
                                                 euclid),
             0.0},
        };
    for (const auto& [gdist, shift] : on_query) {
      ExpectValueAtMatchesCurve(*gdist, object, &query, shift, &gen, &checked);
    }
    ExpectValueAtMatchesCurve(CoordinateValueGDistance(0), object, nullptr,
                              0.0, &gen, &checked);
    ExpectValueAtMatchesCurve(RegionGDistance(region), object, nullptr, 0.0,
                              &gen, &checked);
    ExpectValueAtMatchesCurve(InterceptionTimeSquaredGDistance(target),
                              pursuer, nullptr, 0.0, &gen, &checked);
    const TimeInterval chase = query.Domain().Intersect(pursuer.Domain());
    if (!chase.empty()) {
      ExpectValueAtMatchesCurve(
          MovingInterceptionGDistance(query, std::min(chase.hi, chase.lo + 10.0),
                                      0.5),
          pursuer, &query, 0.0, &gen, &checked);
    }

    // A long history: 40-44 turns, so most pieces lie far from any one
    // instant (the region kernel builds only the piece in effect at t).
    if (iter % 10 == 0) {
      const Trajectory long_object =
          long_gen.Make(object.start_time(), 0.0, 3.0, &query, 40);
      for (const auto& [gdist, shift] : on_query) {
        if (long_object.Domain().Intersect(query.Domain()).empty()) break;
        ExpectValueAtMatchesCurve(*gdist, long_object, &query, shift,
                                  &long_gen, &checked);
      }
      ExpectValueAtMatchesCurve(CoordinateValueGDistance(0), long_object,
                                nullptr, 0.0, &long_gen, &checked);
      ExpectValueAtMatchesCurve(RegionGDistance(region), long_object,
                                nullptr, 0.0, &long_gen, &checked);
    }

    // The pooled curve evaluates to the same value too.
    PolySegPool pool;
    GCurve fallback;
    const PolySegPool::CurveId id =
        euclid->CurveIntoPool(&pool, object, TimeInterval::All(), &fallback);
    ASSERT_NE(id, PolySegPool::kInvalidCurve);
    for (double t : ProbeTimes(object, &query, euclid->Curve(object), 0.0,
                               &gen)) {
      ASSERT_TRUE(SameValue(euclid->ValueAt(object, t), pool.Eval(id, t)))
          << "t=" << t;
    }
  }
  EXPECT_GT(checked, 10000u);
}

// Turns exactly at the common domain end: MergePointwise starts no merged
// segment there, so the curve keeps the earlier piece on both sides; a
// one-instant domain starts its only segment at the turn.
TEST(ValueAtTest, TurnAtCommonDomainEnd) {
  Trajectory query = Trajectory::Linear(0.0, Vec({0.1, 0.3}), Vec({0.7, 1.1}));
  ASSERT_TRUE(query.AddTurn(5.0, Vec({-3.3, 0.9})).ok());
  Trajectory ends_at_turn =
      Trajectory::Linear(1.0, Vec({2.9, -1.7}), Vec({0.3, -0.6}));
  ASSERT_TRUE(ends_at_turn.AddTurn(5.0, Vec({1.3, 0.2})).ok());
  ASSERT_TRUE(ends_at_turn.Terminate(5.0).ok());
  Trajectory ends_at_query_turn =
      Trajectory::Linear(0.5, Vec({-4.1, 6.3}), Vec({0.2, 0.2}));
  ASSERT_TRUE(ends_at_query_turn.Terminate(5.0).ok());
  const Trajectory starts_at_end = Trajectory::Linear(
      5.0, query.PositionAt(5.0) + Vec({1.0, 2.0}), Vec({0.4, 0.4}));
  Trajectory instant = starts_at_end;
  ASSERT_TRUE(instant.Terminate(5.0).ok());

  const SquaredEuclideanGDistance euclid(query);
  for (const Trajectory* object : std::vector<const Trajectory*>{
           &ends_at_turn, &ends_at_query_turn, &starts_at_end, &instant}) {
    const GCurve curve = euclid.Curve(*object);
    for (double t : {curve.Domain().lo, 4.0, std::nextafter(5.0, 0.0), 5.0}) {
      if (!curve.Domain().Contains(t)) continue;
      EXPECT_EQ(euclid.ValueAt(*object, t), curve.Eval(t))
          << "t=" << t << " object " << object->ToString();
    }
  }
  // The query itself ends at one of the object's turns.
  Trajectory short_query =
      Trajectory::Linear(0.0, Vec({1.0, 1.0}), Vec({0.5, -0.25}));
  ASSERT_TRUE(short_query.Terminate(3.0).ok());
  Trajectory object = Trajectory::Linear(0.0, Vec({7.0, 2.0}), Vec({-1.5, 0.3}));
  ASSERT_TRUE(object.AddTurn(3.0, Vec({2.0, 2.0})).ok());
  const SquaredEuclideanGDistance short_euclid(short_query);
  EXPECT_EQ(short_euclid.ValueAt(object, 3.0),
            short_euclid.Curve(object).Eval(3.0));
}

// The full-sort selection SnapshotKnnRanked replaced, as the reference.
std::vector<RankedCandidate> SortedTopK(const MovingObjectDatabase& mod,
                                        const GDistance& gdist, size_t k,
                                        double t) {
  std::vector<RankedCandidate> ranked;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.DefinedAt(t)) continue;
    ranked.push_back(RankedCandidate{oid, gdist.Curve(trajectory).Eval(t)});
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(k, ranked.size()));
  return ranked;
}

TEST(SnapshotKnnRankedTest, PartialSelectionEqualsFullSort) {
  const RandomModOptions options{.num_objects = 60, .seed = 5};
  const UpdateStreamOptions stream{.count = 200, .seed = 6};
  const MovingObjectDatabase churned = RandomHistoryMod(options, stream);

  // Exact ties on value: a ring of stationary objects at squared distance
  // exactly 100 from the origin, duplicates at one point, and a few
  // nearer and farther objects interleaved by oid.
  MovingObjectDatabase ties(2);
  ObjectId oid = 1;
  for (const Vec& p : {Vec({10.0, 0.0}), Vec({0.0, 10.0}), Vec({-10.0, 0.0}),
                       Vec({0.0, -10.0}), Vec({6.0, 8.0}), Vec({-8.0, 6.0}),
                       Vec({1.0, 1.0}), Vec({1.0, 1.0}), Vec({30.0, 0.0}),
                       Vec({1.0, 1.0}), Vec({-6.0, -8.0})}) {
    ASSERT_TRUE(ties.Apply(Update::NewObject(oid, 0.0, p, Vec({0.0, 0.0})))
                    .ok());
    oid += 3;
  }

  const SquaredEuclideanGDistance origin(
      Trajectory::Stationary(0.0, Vec({0.0, 0.0})));
  const SquaredEuclideanGDistance moving(
      Trajectory::Linear(0.0, Vec({-100.0, 50.0}), Vec({3.0, -1.0})));
  const InterceptionTimeSquaredGDistance intercept(Vec({0.0, 0.0}));
  struct Case {
    const MovingObjectDatabase* mod;
    const GDistance* gdist;
    std::vector<double> times;
  };
  const double last = churned.last_update_time();
  for (const Case& c :
       {Case{&ties, &origin, {0.0, 7.5}},
        Case{&churned, &origin, {0.0, last / 3, last / 2, last}},
        Case{&churned, &moving, {0.0, last / 2, last}},
        Case{&churned, &intercept, {0.0, last / 2, last}}}) {
    for (double t : c.times) {
      for (size_t k = 0; k <= c.mod->size() + 2; ++k) {
        ASSERT_EQ(SnapshotKnnRanked(*c.mod, *c.gdist, k, t),
                  SortedTopK(*c.mod, *c.gdist, k, t))
            << c.gdist->name() << " k=" << k << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace modb
