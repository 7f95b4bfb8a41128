// Experiment E8 (Example 12 / Figure 3): the paper's worked 2-NN trace
// over [0, 40] with four objects and a chdir on o1 at time 20. The
// construction places the narrated events exactly: crossings at 8 (o3,o4),
// 10 (o1,o2), 17 (o3,o4 again), the crossing at 24 (o1,o3) cancelled by
// the update and replaced by 22, then the downstream cascade.
//
// One faithful deviation: with Lemma 9's adjacent-pairs-only queue, the
// (o2,o3) event at 31 is deleted when the pair stops being adjacent and
// re-enters when they become adjacent again; the paper's simpler narration
// keeps it queued throughout. The processed event sequence is identical.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "queries/knn.h"
#include "workload/scenarios.h"

namespace modb {
namespace {

class TraceListener : public SweepListener {
 public:
  explicit TraceListener(KnnKernel* kernel) : kernel_(kernel) {}

  void OnSwap(double time, ObjectId left, ObjectId right) override {
    std::printf("  t=%-9.5g o%lld and o%lld switch positions; 2-NN = %s\n",
                time, static_cast<long long>(left),
                static_cast<long long>(right), AnswerString().c_str());
  }
  void OnInsert(double, ObjectId) override {}
  void OnErase(double, ObjectId) override {}
  void OnCurveChanged(double time, ObjectId oid) override {
    std::printf("  t=%-9.5g chdir on o%lld: events re-derived\n", time,
                static_cast<long long>(oid));
  }

 private:
  std::string AnswerString() const {
    std::string s = "{";
    for (ObjectId oid : kernel_->Current()) {
      if (s.size() > 1) s += ", ";
      s += "o" + std::to_string(oid);
    }
    return s + "}";
  }
  KnnKernel* kernel_;
};

void Run() {
  Example12Scenario scenario = MakeExample12Scenario();
  std::printf("E8: Example 12 / Figure 3 — 2-NN over [0, 40], update at "
              "t=20.\n\n");

  FutureQueryEngine engine(scenario.mod, scenario.gdist, 0.0);
  KnnKernel kernel(&engine.state(), scenario.k);
  TraceListener trace(&kernel);
  engine.state().AddListener(&trace);
  engine.Start();

  std::printf("initial order (by g-distance): ");
  for (ObjectId oid : engine.state().order().ToVector()) {
    std::printf("o%lld ", static_cast<long long>(oid));
  }
  std::printf("\ninitial event queue holds %zu pair events "
              "(paper: 8, 10, 31)\n\n",
              engine.state().queue_length());

  std::printf("processing until the update at t=20:\n");
  MODB_CHECK(engine.ApplyUpdate(scenario.mod, scenario.update_at_20).ok());
  std::printf("  (the o1-o3 crossing at 24 was cancelled; the new curve "
              "crosses earlier, at 22)\n\n");

  std::printf("processing the remaining events to t=40:\n");
  engine.AdvanceTo(scenario.interval.hi);
  kernel.timeline().Finish(scenario.interval.hi);

  std::printf("\n2-NN answer timeline (snapshot semantics Q^s):\n%s",
              kernel.timeline().ToString().c_str());
  std::printf("\nQ-exists (in the answer at some time): %zu objects\n",
              kernel.timeline().Existential().size());
  std::printf("Q-forall (in the answer at every time): %zu objects\n",
              kernel.timeline().Universal().size());
  std::printf("\nsupport changes: %llu, max queue length: %zu (N-1 = 3)\n",
              static_cast<unsigned long long>(
                  engine.stats().SupportChanges()),
              engine.stats().max_queue_length);
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) {
  // No tables here; --json still captures the sweep metrics.
  modb::bench::JsonSink sink(modb::bench::JsonSink::PathFromArgs(argc, argv));
  modb::bench::TraceFile trace(
      modb::bench::TraceFile::PathFromArgs(argc, argv));
  modb::Run();
  return 0;
}
