#include "workload/scenarios.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/future_engine.h"
#include "queries/knn.h"

namespace modb {
namespace {

// Collects swap times for trace assertions.
class SwapTrace : public SweepListener {
 public:
  struct Swap {
    double time;
    ObjectId left, right;
  };
  std::vector<Swap> swaps;

  void OnSwap(double time, ObjectId left, ObjectId right) override {
    swaps.push_back({time, left, right});
  }
  void OnInsert(double, ObjectId) override {}
  void OnErase(double, ObjectId) override {}
};

TEST(Figure2ScenarioTest, FullNarrative) {
  Figure2Scenario scenario = MakeFigure2Scenario();
  FutureQueryEngine engine(scenario.mod, scenario.gdist, 0.0);
  SwapTrace trace;
  engine.state().AddListener(&trace);
  KnnKernel nearest(&engine.state(), 1);
  engine.Start();

  // "The object o2 is closer but at time D o1 is expected to be closer":
  // the initial event queue holds the crossing at D = 20.
  EXPECT_EQ(nearest.Current(), (std::set<ObjectId>{scenario.o2}));
  ASSERT_EQ(engine.state().queue_length(), 1u);

  // "o1 changes its moving direction at time A and as a result, its
  // g-distance curve will not meet o2's at time D."
  ASSERT_TRUE(engine.ApplyUpdate(scenario.mod, scenario.update_a).ok());
  EXPECT_EQ(engine.state().queue_length(), 0u);

  // "At a later time B, o2 also changes its course and o1 will again
  // become closer than o2 but at an earlier time C."
  ASSERT_TRUE(engine.ApplyUpdate(scenario.mod, scenario.update_b).ok());
  ASSERT_EQ(engine.state().queue_length(), 1u);

  engine.AdvanceTo(scenario.horizon);
  ASSERT_EQ(trace.swaps.size(), 1u);
  EXPECT_NEAR(trace.swaps[0].time, scenario.time_c, 1e-9);
  EXPECT_LT(scenario.time_c, scenario.time_d);
  EXPECT_EQ(nearest.Current(), (std::set<ObjectId>{scenario.o1}));
}

TEST(Example12ScenarioTest, InitialOrderAndQueue) {
  Example12Scenario scenario = MakeExample12Scenario();
  FutureQueryEngine engine(scenario.mod, scenario.gdist, 0.0);
  engine.Start();
  // "the ordering is o4 < o3 < o2 < o1".
  EXPECT_EQ(engine.state().order().ToVector(),
            (std::vector<ObjectId>{4, 3, 2, 1}));
  // Adjacent pairs with future intersections: (o4,o3) at 8, (o2,o1) at 10,
  // (o3,o2) at 31.
  EXPECT_EQ(engine.state().queue_length(), 3u);
}

TEST(Example12ScenarioTest, AnswerUpToTimeThree) {
  // "The answer up to time 3 is o3 and o4."
  Example12Scenario scenario = MakeExample12Scenario();
  FutureQueryEngine engine(scenario.mod, scenario.gdist, 0.0);
  KnnKernel kernel(&engine.state(), scenario.k);
  engine.Start();
  engine.AdvanceTo(3.0);
  EXPECT_EQ(kernel.Current(), (std::set<ObjectId>{3, 4}));
}

TEST(Example12ScenarioTest, FullEventTrace) {
  Example12Scenario scenario = MakeExample12Scenario();
  FutureQueryEngine engine(scenario.mod, scenario.gdist, 0.0);
  SwapTrace trace;
  engine.state().AddListener(&trace);
  KnnKernel kernel(&engine.state(), scenario.k);
  engine.Start();

  // Process everything before the update at 20: events at 8, 10, 17.
  ASSERT_TRUE(engine.ApplyUpdate(scenario.mod, scenario.update_at_20).ok());
  {
    std::vector<double> times;
    for (const auto& s : trace.swaps) times.push_back(s.time);
    ASSERT_EQ(times.size(), 3u);
    EXPECT_NEAR(times[0], 8.0, 1e-9);
    EXPECT_NEAR(times[1], 10.0, 1e-9);
    EXPECT_NEAR(times[2], 17.0, 1e-9);
  }
  // "after intersection at time 17 ... the intersection at 24 is found
  // since o1 and o3 are neighbors" — and the update at 20 replaces it with
  // an earlier crossing at 22.
  ASSERT_GT(engine.state().queue_length(), 0u);
  // The earliest pending event is the replacement crossing at 22 (the
  // cancelled one was at 24).
  engine.AdvanceTo(22.0);
  ASSERT_EQ(trace.swaps.size(), 4u);
  EXPECT_NEAR(trace.swaps[3].time, scenario.replacement_event, 1e-9);
  EXPECT_EQ(trace.swaps[3].left, 3);
  EXPECT_EQ(trace.swaps[3].right, 1);

  // Run out the interval; the hand-derived cascade from the closed forms:
  // 922/41, 878/31, 30, 425/14, 31, 397/11.
  engine.AdvanceTo(scenario.interval.hi);
  std::vector<double> all_times;
  for (const auto& s : trace.swaps) all_times.push_back(s.time);
  ASSERT_EQ(all_times.size(), 10u);
  EXPECT_NEAR(all_times[4], 922.0 / 41.0, 1e-6);   // 22.4878.
  EXPECT_NEAR(all_times[5], 878.0 / 31.0, 1e-6);   // 28.3226.
  EXPECT_NEAR(all_times[6], 30.0, 1e-9);
  EXPECT_NEAR(all_times[7], 425.0 / 14.0, 1e-6);   // 30.3571.
  EXPECT_NEAR(all_times[8], 31.0, 1e-9);
  EXPECT_NEAR(all_times[9], 397.0 / 11.0, 1e-6);   // 36.0909.

  // Final order (values at t=40: f2=225 < f4≈391 < f3=900 < f1=3600).
  EXPECT_EQ(engine.state().order().ToVector(),
            (std::vector<ObjectId>{2, 4, 3, 1}));

  // 2-NN answer timeline: {o3,o4} / {o1,o4} / {o3,o4} / {o2,o4}.
  kernel.timeline().Finish(scenario.interval.hi);
  const AnswerTimeline& timeline = kernel.timeline();
  EXPECT_EQ(timeline.AnswerAt(10.0), (std::set<ObjectId>{3, 4}));
  EXPECT_EQ(timeline.AnswerAt(25.0), (std::set<ObjectId>{1, 4}));
  EXPECT_EQ(timeline.AnswerAt(30.5), (std::set<ObjectId>{3, 4}));
  EXPECT_EQ(timeline.AnswerAt(35.0), (std::set<ObjectId>{2, 4}));
  ASSERT_EQ(timeline.segments().size(), 4u);
  EXPECT_NEAR(timeline.segments()[1].interval.lo, 22.0, 1e-9);
  EXPECT_NEAR(timeline.segments()[2].interval.lo, 30.0, 1e-9);
  EXPECT_NEAR(timeline.segments()[3].interval.lo, 31.0, 1e-9);
}

TEST(Example12ScenarioTest, LazyPastSweepAgrees) {
  Example12Scenario scenario = MakeExample12Scenario();
  MovingObjectDatabase final_mod = scenario.mod;
  ASSERT_TRUE(final_mod.Apply(scenario.update_at_20).ok());
  const AnswerTimeline lazy =
      PastKnn(final_mod, scenario.gdist, scenario.k, scenario.interval);
  EXPECT_EQ(lazy.AnswerAt(10.0), (std::set<ObjectId>{3, 4}));
  EXPECT_EQ(lazy.AnswerAt(25.0), (std::set<ObjectId>{1, 4}));
  EXPECT_EQ(lazy.AnswerAt(30.5), (std::set<ObjectId>{3, 4}));
  EXPECT_EQ(lazy.AnswerAt(35.0), (std::set<ObjectId>{2, 4}));
}

}  // namespace
}  // namespace modb
