// Experiment E11 (§4 Examples 8/9/11): micro-benchmarks of the g-distance
// kernels via google-benchmark — curve construction, evaluation (of a
// built curve, and of one value without a curve), and the pairwise
// crossing primitive the sweep spends its time in.

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gdist/builtin.h"
#include "gdist/region.h"
#include "geom/curve_pool.h"
#include "workload/generator.h"

namespace modb {
namespace {

Trajectory RandomTurnyTrajectory(Rng& rng, size_t turns) {
  Trajectory t = Trajectory::Linear(0.0, RandomPoint(rng, 2, -500.0, 500.0),
                                    RandomVelocity(rng, 2, 1.0, 10.0));
  for (size_t i = 1; i <= turns; ++i) {
    MODB_CHECK(
        t.AddTurn(10.0 * static_cast<double>(i),
                  RandomVelocity(rng, 2, 1.0, 10.0))
            .ok());
  }
  return t;
}

void BM_SquaredEuclideanCurveBuild(benchmark::State& state) {
  Rng rng(71);
  const SquaredEuclideanGDistance gdist(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
  const Trajectory object =
      RandomTurnyTrajectory(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gdist.Curve(object));
  }
}
BENCHMARK(BM_SquaredEuclideanCurveBuild)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_CurveEval(benchmark::State& state) {
  Rng rng(72);
  const SquaredEuclideanGDistance gdist(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
  const GCurve curve = gdist.Curve(RandomTurnyTrajectory(rng, 16));
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.Eval(t));
    t += 0.1;
    if (t > 160.0) t = 0.0;
  }
}
BENCHMARK(BM_CurveEval);

void BM_FirstTimeAbovePolynomial(benchmark::State& state) {
  Rng rng(73);
  const SquaredEuclideanGDistance gdist(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
  const GCurve a = gdist.Curve(RandomTurnyTrajectory(rng, 4));
  const GCurve b = gdist.Curve(RandomTurnyTrajectory(rng, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GCurve::FirstTimeAbove(a, b, 0.0, 50.0));
  }
}
BENCHMARK(BM_FirstTimeAbovePolynomial);

void BM_InterceptionCurveBuild(benchmark::State& state) {
  Rng rng(74);
  const InterceptionTimeSquaredGDistance gdist(Vec{0.0, 0.0});
  const Trajectory object = RandomTurnyTrajectory(rng, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gdist.Curve(object));
  }
}
BENCHMARK(BM_InterceptionCurveBuild);

void BM_MovingInterceptionEval(benchmark::State& state) {
  Rng rng(75);
  const MovingInterceptionGDistance gdist(
      Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.5}),
      /*horizon=*/200.0, /*sample_step=*/0.25);
  const Trajectory chaser =
      Trajectory::Linear(0.0, Vec{100.0, 100.0}, Vec{-4.0, -4.0});
  const GCurve curve = gdist.Curve(chaser);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.Eval(t));
    t += 0.1;
    if (t > 150.0) t = 0.0;
  }
}
BENCHMARK(BM_MovingInterceptionEval);

// Region curve construction. range(0) points are hulled into the region
// (the build costs Θ(E²) root solves per trajectory piece, E edges);
// range(1) is the trajectory's piece count (turns every 10 time units).
// The whole build (`Curve()`) grows with the history. The windowed build
// packs into the pool only the pieces in effect in a 0.05-long window in
// the last trajectory piece, as a short past query late in the history
// does, so it stays flat in the history length.
template <bool kWindowed>
void BM_RegionCurveBuild(benchmark::State& state) {
  Rng rng(76);
  std::vector<Vec> points;
  for (int64_t i = 0; i < state.range(0); ++i) {
    points.push_back(RandomPoint(rng, 2, -100.0, 100.0));
  }
  const RegionGDistance gdist(ConvexPolygon::Hull(points));
  const size_t pieces = static_cast<size_t>(state.range(1));
  const Trajectory object = RandomTurnyTrajectory(rng, pieces - 1);
  const double t = 10.0 * static_cast<double>(pieces - 1) + 5.0;
  PolySegPool pool;
  for (auto _ : state) {
    if (kWindowed) {
      GCurve fallback;
      const PolySegPool::CurveId id = gdist.CurveIntoPool(
          &pool, object, TimeInterval(t, t + 0.05), &fallback);
      pool.Release(id);
    } else {
      benchmark::DoNotOptimize(gdist.Curve(object));
    }
  }
}
BENCHMARK_TEMPLATE(BM_RegionCurveBuild, false)
    ->ArgsProduct({{4, 16, 64}, {2, 8, 32}});
BENCHMARK_TEMPLATE(BM_RegionCurveBuild, true)
    ->ArgsProduct({{4, 16, 64}, {2, 8, 32}});

// Point evaluation: one squared-Euclidean value per object of a
// 1000-object fleet, each object carrying range(0) pieces (turns every 10
// time units), at instants spread over the whole history. `Curve().Eval`
// builds the object's whole-history curve for one value; `ValueAt` reads
// the pieces in effect at t, so only its binary searches grow with history
// length.
template <bool kValueAt>
void BM_EuclidPointEval(benchmark::State& state) {
  constexpr size_t kFleet = 1000;
  const SquaredEuclideanGDistance gdist(
      Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.5}));
  Rng rng(77);
  const size_t pieces = static_cast<size_t>(state.range(0));
  std::vector<Trajectory> fleet;
  fleet.reserve(kFleet);
  for (size_t i = 0; i < kFleet; ++i) {
    fleet.push_back(RandomTurnyTrajectory(rng, pieces - 1));
  }
  const double span = 10.0 * static_cast<double>(pieces);
  double t = 0.0;
  for (auto _ : state) {
    for (const Trajectory& object : fleet) {
      benchmark::DoNotOptimize(kValueAt ? gdist.ValueAt(object, t)
                                        : gdist.Curve(object).Eval(t));
      t += 0.37;
      if (t > span) t -= span;
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kFleet));
}
BENCHMARK_TEMPLATE(BM_EuclidPointEval, false)->Arg(2)->Arg(32);
BENCHMARK_TEMPLATE(BM_EuclidPointEval, true)->Arg(2)->Arg(32);

void BM_FirstTimeAboveNumeric(benchmark::State& state) {
  const MovingInterceptionGDistance gdist(
      Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.5}), 200.0, 0.25);
  const GCurve a = gdist.Curve(
      Trajectory::Linear(0.0, Vec{100.0, 100.0}, Vec{-4.0, -4.0}));
  const GCurve b = gdist.Curve(
      Trajectory::Linear(0.0, Vec{-150.0, 50.0}, Vec{4.0, -2.0}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GCurve::FirstTimeAbove(a, b, 0.0, 150.0));
  }
}
BENCHMARK(BM_FirstTimeAboveNumeric);

}  // namespace
}  // namespace modb

// Accepts the same `--json PATH` flag as the other bench binaries by
// translating it into google-benchmark's --benchmark_out flags; every
// other argument passes through untouched.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      translated.push_back("--benchmark_out=" + args[i + 1]);
      translated.push_back("--benchmark_out_format=json");
      ++i;
    } else {
      translated.push_back(args[i]);
    }
  }
  std::vector<char*> raw;
  raw.reserve(translated.size());
  for (std::string& arg : translated) raw.push_back(arg.data());
  int raw_argc = static_cast<int>(raw.size());
  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
