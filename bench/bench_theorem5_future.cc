// Experiment E2/E3 (Theorem 5): future-query evaluation.
//  5.1  Initialization (sorting the object list and seeding the event
//       queue) is O(N log N): time/(N log N) flat over N.
//  5.2  Maintaining the support costs O(m log N) per update, with m the
//       support changes between consecutive updates: spreading the same
//       update count over longer gaps raises m per update and the cost
//       follows; time/((m+1) log N) stays flat.

#include <memory>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace {

GDistancePtr Gdist() {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
}

void InitializationSweep(bench::JsonSink* sink) {
  std::printf(
      "E2: future-query initialization (Theorem 5.1), time vs N, and the\n"
      "teardown of the founded engine.\n"
      "Claim: time / (N log2 N) is flat.\n");
  bench::Table table(sink, "init_vs_n",
                     {"N", "time_ms", "norm_us", "teardown_ms"});
  for (size_t n : {1000, 2000, 4000, 8000, 16000, 32000, 64000}) {
    const RandomModOptions options{.num_objects = n, .dim = 2,
                                   .seed = 11 + n};
    const MovingObjectDatabase mod = RandomMod(options);
    auto engine = std::make_unique<FutureQueryEngine>(mod, Gdist(), 0.0);
    auto kernel = std::make_unique<KnnKernel>(&engine->state(), 5);
    const double seconds = bench::MeasureSeconds([&] { engine->Start(); });
    // The kernel detaches from the sweep first, as QueryServer's group
    // teardown does.
    const double teardown_seconds = bench::MeasureSeconds([&] {
      kernel.reset();
      engine.reset();
    });
    table.Row({static_cast<double>(n), seconds * 1e3,
               seconds * 1e6 / (static_cast<double>(n) * bench::Log2(n)),
               teardown_seconds * 1e3});
  }
}

void UpdateCostVsGap(bench::JsonSink* sink, const std::string& table_name) {
  std::printf(
      "\nE3: per-update maintenance (Theorem 5.2), N = 2000, 200 chdir "
      "updates, varying the gap between updates [kernel: %s].\n"
      "Claim: cost per update tracks m (support changes per update); "
      "time / ((m+1) log2 N) is flat.\n",
      KernelKindName(ActiveKernel()));
  bench::Table table(
      sink, table_name,
      {"mean_gap", "m_per_update", "us_per_update", "norm_us"});
  const size_t n = 2000;
  for (double gap : {0.01, 0.04, 0.16, 0.64, 2.56}) {
    const RandomModOptions options{.num_objects = n, .dim = 2, .seed = 13};
    const UpdateStreamOptions stream{.count = 200,
                                     .mean_gap = gap,
                                     .chdir_weight = 1.0,
                                     .new_weight = 0.0,
                                     .terminate_weight = 0.0,
                                     .seed = 17};
    MovingObjectDatabase mod = RandomMod(options);
    const std::vector<Update> updates =
        RandomUpdateStream(mod, options, stream);
    FutureQueryEngine engine(mod, Gdist(), 0.0);
    KnnKernel kernel(&engine.state(), 5);
    engine.Start();
    const uint64_t changes_before = engine.stats().SupportChanges();
    const double seconds = bench::MeasureSeconds([&] {
      for (const Update& update : updates) {
        const Status status = engine.ApplyUpdate(mod, update);
        MODB_CHECK(status.ok()) << status.ToString();
      }
    });
    const double m_per_update =
        static_cast<double>(engine.stats().SupportChanges() -
                            changes_before) /
        static_cast<double>(updates.size());
    const double us_per_update = seconds * 1e6 / updates.size();
    table.Row({gap, m_per_update, us_per_update,
               us_per_update / ((m_per_update + 1.0) * bench::Log2(n))});
  }
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) {
  modb::bench::JsonSink sink(modb::bench::JsonSink::PathFromArgs(argc, argv));
  modb::bench::TraceFile trace(
      modb::bench::TraceFile::PathFromArgs(argc, argv));
  const std::optional<modb::KernelKind> pinned =
      modb::bench::KernelFromArgs(argc, argv);
  modb::InitializationSweep(&sink);
  modb::UpdateCostVsGap(&sink, "update_cost_vs_gap");
  // Without a pinned kernel, also record the other variant's E3 table so
  // the committed baseline carries both (EXPERIMENTS.md, E16).
  if (!pinned.has_value() && modb::Avx2Available()) {
    modb::SetKernelOverride(modb::KernelKind::kScalar);
    modb::UpdateCostVsGap(&sink, "update_cost_vs_gap_scalar");
    modb::SetKernelOverride(std::nullopt);
  }
  return 0;
}
