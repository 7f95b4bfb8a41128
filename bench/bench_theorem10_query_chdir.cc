// Experiment E5 (Theorem 10): a chdir on the *query* trajectory — every
// object's g-distance changes, but the current precedence order is still
// valid — is handled in O(N): all curves are rebuilt and the event queue
// is bulk-rebuilt without re-sorting. Compare against re-initializing a
// fresh engine (O(N log N) sort + per-insert event repair).

#include <memory>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace {

void QueryChdirSweep(bench::JsonSink* sink, const std::string& table_name) {
  std::printf(
      "E5: chdir on the query trajectory at t=1 vs N [kernel: %s].\n"
      "Claim: time/N flat (Theorem 10), and cheaper than re-initializing "
      "(which pays the sort).\n",
      KernelKindName(ActiveKernel()));
  bench::Table table(
      sink, table_name,
      {"N", "chdir_ms", "chdir_us_per_N", "reinit_ms", "speedup"});
  for (size_t n : {1000, 2000, 4000, 8000, 16000, 32000}) {
    const RandomModOptions options{.num_objects = n, .dim = 2,
                                   .seed = 29 + n};
    const MovingObjectDatabase mod = RandomMod(options);

    Trajectory query_before =
        Trajectory::Linear(0.0, Vec{100.0, 100.0}, Vec{-2.0, -1.0});
    Trajectory query_after = query_before;
    MODB_CHECK(query_after.AddTurn(1.0, Vec{3.0, 0.0}).ok());

    // Theorem 10 path.
    FutureQueryEngine engine(
        mod, std::make_shared<SquaredEuclideanGDistance>(query_before), 0.0);
    KnnKernel kernel(&engine.state(), 5);
    engine.Start();
    engine.AdvanceTo(1.0);
    const double chdir_seconds = bench::MeasureSeconds([&] {
      engine.ChangeQueryGDistance(
          std::make_shared<SquaredEuclideanGDistance>(query_after));
    });

    // Baseline: build a fresh engine at t=1 with the new query.
    const double reinit_seconds = bench::MeasureSeconds([&] {
      FutureQueryEngine fresh(
          mod, std::make_shared<SquaredEuclideanGDistance>(query_after), 1.0);
      KnnKernel fresh_kernel(&fresh.state(), 5);
      fresh.Start();
    });

    table.Row({static_cast<double>(n), chdir_seconds * 1e3,
               chdir_seconds * 1e6 / static_cast<double>(n),
               reinit_seconds * 1e3, reinit_seconds / chdir_seconds});
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
  modb::QueryChdirSweep(&sink, "query_chdir_vs_n");
  // Without a pinned kernel, also record the scalar variant so the
  // committed baseline carries both (EXPERIMENTS.md, E16).
  if (!pinned.has_value() && modb::Avx2Available()) {
    modb::SetKernelOverride(modb::KernelKind::kScalar);
    modb::QueryChdirSweep(&sink, "query_chdir_vs_n_scalar");
    modb::SetKernelOverride(std::nullopt);
  }
  return 0;
}
