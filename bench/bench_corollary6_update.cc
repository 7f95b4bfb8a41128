// Experiment E4 (Corollary 6): when the number of support changes between
// consecutive updates is bounded (frequent/periodic updates — the paper's
// "reasonable practical assumptions"), each update is processed in
// O(log N). Updates arrive densely, so m per update stays small across all
// N; time-per-update divided by log2 N must be flat as N grows.

#include <memory>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace {

void UpdateCostVsN(bench::JsonSink* sink) {
  std::printf(
      "E4: per-update cost with bounded support changes vs N.\n"
      "Corollary 6's premise is that m (support changes between updates) "
      "stays bounded, so the update gap shrinks ~1/N^2 to hold the\n"
      "crossing count per gap constant as N grows.\n"
      "Claim: us_per_update / log2 N is flat (Corollary 6).\n");
  bench::Table table(sink, "E4_corollary6_update",
                     {"N", "m_per_update", "us_per_update", "norm_us"});
  for (size_t n : {1000, 2000, 4000, 8000, 16000}) {
    const RandomModOptions options{.num_objects = n, .dim = 2,
                                   .seed = 19 + n};
    const UpdateStreamOptions stream{.count = 400,
                                     .mean_gap =
                                         2000.0 / (static_cast<double>(n) *
                                                   static_cast<double>(n)),
                                     .chdir_weight = 1.0,
                                     .new_weight = 0.0,
                                     .terminate_weight = 0.0,
                                     .seed = 23};
    MovingObjectDatabase mod = RandomMod(options);
    const std::vector<Update> updates =
        RandomUpdateStream(mod, options, stream);
    FutureQueryEngine engine(mod,
                             std::make_shared<SquaredEuclideanGDistance>(
                                 Trajectory::Stationary(0.0, Vec{0.0, 0.0})),
                             0.0);
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
    table.Row({static_cast<double>(n), m_per_update, us_per_update,
               us_per_update / bench::Log2(n)});
  }
}

}  // namespace
}  // namespace modb

int main(int argc, char** argv) {
  modb::bench::JsonSink sink(modb::bench::JsonSink::PathFromArgs(argc, argv));
  modb::bench::TraceFile trace(
      modb::bench::TraceFile::PathFromArgs(argc, argv));
  modb::UpdateCostVsN(&sink);
  return 0;
}
