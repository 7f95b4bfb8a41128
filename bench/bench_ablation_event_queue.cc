// Experiment E10 (Lemma 9 ablation): the event-queue design point. The
// paper prescribes (a) keeping only the earliest intersection per
// *currently adjacent* pair — bounding the queue by N-1 — and (b) a
// height-biased leftist tree with handles so deletion is O(log N). We
// compare the leftist implementation with the default indexed 4-ary heap
// on identical workloads, and report the measured peak queue length
// against the N-1 bound.

#include <memory>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace {

struct RunStats {
  double seconds;
  uint64_t support_changes;
  size_t max_queue;
};

RunStats RunWorkload(EventQueueKind kind, size_t n) {
  const RandomModOptions options{.num_objects = n, .dim = 2, .seed = 61};
  const UpdateStreamOptions stream{.count = 300,
                                   .mean_gap = 0.02,
                                   .chdir_weight = 0.8,
                                   .new_weight = 0.1,
                                   .terminate_weight = 0.1,
                                   .seed = 67};
  MovingObjectDatabase mod = RandomMod(options);
  const std::vector<Update> updates = RandomUpdateStream(mod, options, stream);
  FutureQueryEngine engine(mod,
                           std::make_shared<SquaredEuclideanGDistance>(
                               Trajectory::Stationary(0.0, Vec{0.0, 0.0})),
                           0.0, kInf, kind);
  KnnKernel kernel(&engine.state(), 5);
  const double seconds = bench::MeasureSeconds([&] {
    engine.Start();
    for (const Update& update : updates) {
      const Status status = engine.ApplyUpdate(mod, update);
      MODB_CHECK(status.ok()) << status.ToString();
    }
    engine.AdvanceTo(engine.now() + 5.0);
  });
  return RunStats{seconds, engine.stats().SupportChanges(),
                  engine.stats().max_queue_length};
}

void Ablation(bench::JsonSink* sink) {
  std::printf(
      "E10: event queue ablation — leftist tree (Lemma 9) vs the indexed "
      "4-ary heap on the same workload (init + 300 updates + 5 time units "
      "of sweep).\n"
      "Also verifies the adjacent-pairs-only invariant: max queue <= N-1.\n");
  bench::Table table(sink, "queue_ablation",
                     {"N", "impl", "time_ms", "m", "max_queue"});
  for (size_t n : {500, 2000, 8000}) {
    for (EventQueueKind kind :
         {EventQueueKind::kLeftist, EventQueueKind::kIndexed}) {
      const RunStats stats = RunWorkload(kind, n);
      MODB_CHECK(stats.max_queue <= n - 1)
          << "queue bound violated: " << stats.max_queue;
      table.Row({static_cast<double>(n),
                 kind == EventQueueKind::kLeftist ? 0.0 : 2.0,
                 stats.seconds * 1e3,
                 static_cast<double>(stats.support_changes),
                 static_cast<double>(stats.max_queue)});
    }
  }
  std::printf("(impl column: 0 = leftist, 2 = indexed)\n");
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) {
  modb::bench::JsonSink sink(modb::bench::JsonSink::PathFromArgs(argc, argv));
  modb::bench::TraceFile trace(
      modb::bench::TraceFile::PathFromArgs(argc, argv));
  modb::Ablation(&sink);
  return 0;
}
