// Long randomized end-to-end runs: a future engine is driven by hundreds
// of random updates while (a) structural invariants are checked, (b) the
// k-NN kernel is compared against brute-force snapshots, and (c) the
// within kernel is compared against brute-force threshold snapshots.
// This is the closest thing to production soak testing the library gets.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "queries/within.h"
#include "workload/generator.h"

namespace modb {
namespace {

struct ChaosParams {
  uint64_t seed;
  size_t num_objects;
  size_t k;
  double mean_gap;
  EventQueueKind queue_kind;
};

class ChaosTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosTest, KnnKernelSurvivesRandomStream) {
  const ChaosParams params = GetParam();
  const RandomModOptions mod_options{.num_objects = params.num_objects,
                                     .dim = 2,
                                     .speed_max = 15.0,
                                     .seed = params.seed};
  const UpdateStreamOptions stream_options{
      .count = 150,
      .mean_gap = params.mean_gap,
      .chdir_weight = 0.7,
      .new_weight = 0.15,
      .terminate_weight = 0.15,
      .min_alive = params.k + 2,
      .seed = params.seed * 31 + 7};
  const MovingObjectDatabase initial = RandomMod(mod_options);
  const std::vector<Update> updates =
      RandomUpdateStream(initial, mod_options, stream_options);

  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Linear(0.0, Vec{50.0, -20.0}, Vec{-1.0, 1.5}));
  MovingObjectDatabase live = initial;
  FutureQueryEngine engine(live, gdist, 0.0, kInf, params.queue_kind);
  KnnKernel kernel(&engine.state(), params.k);
  engine.Start();

  // Mirror of the database, for brute-force snapshots. Comparisons happen
  // a hair *after* each update instant: at exactly a termination time the
  // object is still defined (Definition 3 conjoins t <= τ) while the
  // engine's right-continuous view has already dropped it.
  MovingObjectDatabase mirror = initial;
  size_t checks = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(live, updates[i]).ok());
    ASSERT_TRUE(mirror.Apply(updates[i]).ok());
    if (i % 10 == 0) {
      const double next_time =
          (i + 1 < updates.size()) ? updates[i + 1].time : engine.now() + 1.0;
      if (next_time <= engine.now()) continue;  // Simultaneous updates.
      const double t_check =
          engine.now() + std::min(1e-7, 0.5 * (next_time - engine.now()));
      engine.AdvanceTo(t_check);
      engine.state().CheckInvariants();
      EXPECT_EQ(kernel.Current(),
                SnapshotKnn(mirror, *gdist, params.k, t_check))
          << "after update " << i << " at t=" << t_check;
      ++checks;
    }
  }
  // Advance past the last update and re-verify at several instants.
  const double end = engine.now() + 25.0;
  for (double t = engine.now() + 5.0; t <= end; t += 5.0) {
    engine.AdvanceTo(t);
    engine.state().CheckInvariants();
    EXPECT_EQ(kernel.Current(), SnapshotKnn(mirror, *gdist, params.k, t))
        << "t=" << t;
    ++checks;
  }
  EXPECT_GT(checks, 15u);
}

TEST_P(ChaosTest, WithinKernelSurvivesRandomStream) {
  const ChaosParams params = GetParam();
  const RandomModOptions mod_options{.num_objects = params.num_objects,
                                     .dim = 2,
                                     .box_lo = -300.0,
                                     .box_hi = 300.0,
                                     .speed_max = 15.0,
                                     .seed = params.seed + 5000};
  const UpdateStreamOptions stream_options{
      .count = 120,
      .mean_gap = params.mean_gap,
      .chdir_weight = 0.7,
      .new_weight = 0.15,
      .terminate_weight = 0.15,
      .seed = params.seed * 17 + 3};
  const MovingObjectDatabase initial = RandomMod(mod_options);
  const std::vector<Update> updates =
      RandomUpdateStream(initial, mod_options, stream_options);

  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
  const double threshold = 200.0 * 200.0;
  MovingObjectDatabase live = initial;
  FutureQueryEngine engine(live, gdist, 0.0, kInf, params.queue_kind);
  WithinKernel kernel(&engine.state(), /*sentinel_oid=*/-9, threshold);
  engine.Start();

  MovingObjectDatabase mirror = initial;
  for (size_t i = 0; i < updates.size(); ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(live, updates[i]).ok());
    ASSERT_TRUE(mirror.Apply(updates[i]).ok());
    if (i % 8 == 0) {
      const double next_time =
          (i + 1 < updates.size()) ? updates[i + 1].time : engine.now() + 1.0;
      if (next_time <= engine.now()) continue;
      const double t_check =
          engine.now() + std::min(1e-7, 0.5 * (next_time - engine.now()));
      engine.AdvanceTo(t_check);
      engine.state().CheckInvariants();
      EXPECT_EQ(kernel.Current(),
                SnapshotWithin(mirror, *gdist, threshold, t_check))
          << "after update " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosTest,
    ::testing::Values(
        ChaosParams{11, 15, 1, 0.5, EventQueueKind::kLeftist},
        ChaosParams{22, 30, 3, 1.0, EventQueueKind::kLeftist},
        ChaosParams{33, 50, 5, 2.0, EventQueueKind::kLeftist},
        ChaosParams{44, 30, 3, 1.0, EventQueueKind::kIndexed},
        ChaosParams{55, 25, 2, 4.0, EventQueueKind::kLeftist},
        ChaosParams{66, 30, 3, 1.0, EventQueueKind::kIndexed},
        ChaosParams{77, 50, 5, 2.0, EventQueueKind::kIndexed}),
    [](const auto& info) { return "Seed" + std::to_string(info.param.seed); });

}  // namespace
}  // namespace modb
