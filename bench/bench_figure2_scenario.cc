// Experiment E7 (Figure 2): the two-object narrative. o2 is closer; the
// curves are expected to cross at D. A chdir on o1 at A cancels the
// crossing; a chdir on o2 at B re-creates one at C < D. This binary
// replays the scenario and prints the queue/answer evolution; the
// scenario_test asserts the same facts.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "obs/trace.h"
#include "queries/knn.h"
#include "workload/scenarios.h"

namespace modb {
namespace {

class NarratingListener : public SweepListener {
 public:
  void OnSwap(double time, ObjectId left, ObjectId right) override {
    std::printf("  t=%-8.4g curves of o%lld and o%lld cross; o%lld now "
                "precedes\n",
                time, static_cast<long long>(left),
                static_cast<long long>(right), static_cast<long long>(right));
  }
  void OnInsert(double time, ObjectId oid) override {
    std::printf("  t=%-8.4g o%lld enters the order\n", time,
                static_cast<long long>(oid));
  }
  void OnErase(double time, ObjectId oid) override {
    std::printf("  t=%-8.4g o%lld leaves the order\n", time,
                static_cast<long long>(oid));
  }
  void OnCurveChanged(double time, ObjectId oid) override {
    std::printf("  t=%-8.4g curve of o%lld replaced (chdir)\n", time,
                static_cast<long long>(oid));
  }
};

void Run() {
  Figure2Scenario scenario = MakeFigure2Scenario();
  std::printf(
      "E7: Figure 2 scenario (A=%.4g, B=%.4g, expected C=%.4g, D=%.4g)\n\n",
      scenario.time_a, scenario.time_b, scenario.time_c, scenario.time_d);

  FutureQueryEngine engine(scenario.mod, scenario.gdist, 0.0);
  NarratingListener narrator;
  engine.state().AddListener(&narrator);
  KnnKernel nearest(&engine.state(), 1);
  engine.Start();

  std::printf("\ninitial nearest: o%lld; queued exchange at t=%.4g (D)\n",
              static_cast<long long>(*nearest.Current().begin()),
              scenario.time_d);

  std::printf("\napplying %s:\n", scenario.update_a.ToString().c_str());
  MODB_CHECK(engine.ApplyUpdate(scenario.mod, scenario.update_a).ok());
  std::printf("  event queue length now %zu (crossing at D cancelled)\n",
              engine.state().queue_length());

  std::printf("\napplying %s:\n", scenario.update_b.ToString().c_str());
  MODB_CHECK(engine.ApplyUpdate(scenario.mod, scenario.update_b).ok());
  std::printf("  event queue length now %zu (new crossing at C=%.4g)\n",
              engine.state().queue_length(), scenario.time_c);

  std::printf("\nadvancing to the horizon %.4g:\n", scenario.horizon);
  engine.AdvanceTo(scenario.horizon);
  nearest.timeline().Finish(scenario.horizon);

  std::printf("\n1-NN timeline:\n%s", nearest.timeline().ToString().c_str());
  std::printf("paper narrative reproduced: C=%.4g < D=%.4g\n",
              scenario.time_c, scenario.time_d);
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) {
  // No tables here; --json still captures the sweep metrics.
  modb::bench::JsonSink sink(modb::bench::JsonSink::PathFromArgs(argc, argv));
  const std::string trace_path =
      modb::bench::TraceFile::PathFromArgs(argc, argv);
  // E7 reads the causal trace pair by pair: keep the per-event sweep
  // instants under each cascade.
  if (!trace_path.empty()) modb::obs::SetSweepTraceDetail(true);
  modb::bench::TraceFile trace(trace_path);
  modb::Run();
  return 0;
}
