// Experiment E4 (Corollary 6): when the number of support changes between
// consecutive updates is bounded (frequent/periodic updates — the paper's
// "reasonable practical assumptions"), each update is processed in
// O(log N). Updates arrive densely, so m per update stays small across all
// N; time-per-update divided by log2 N must be flat as N grows.
//
// Each N is timed over kPasses fresh passes (a fresh MOD and engine each),
// and the table gives the median with the min and max, so one slow pass
// cannot pass for the row. Pass p times every N once before pass p + 1
// starts, so a host slowdown spreads across rows instead of landing on
// one. m per update is deterministic: every pass must count the same.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "workload/generator.h"

namespace modb {
namespace {

constexpr int kPasses = 5;

// One fresh pass at N = n: builds the MOD, the update stream and the
// engine, then times the updates alone. Returns (m per update, us per
// update).
std::pair<double, double> TimeOnePass(size_t n) {
  const RandomModOptions options{.num_objects = n, .dim = 2, .seed = 19 + n};
  const UpdateStreamOptions stream{.count = 400,
                                   .mean_gap =
                                       2000.0 / (static_cast<double>(n) *
                                                 static_cast<double>(n)),
                                   .chdir_weight = 1.0,
                                   .new_weight = 0.0,
                                   .terminate_weight = 0.0,
                                   .seed = 23};
  MovingObjectDatabase mod = RandomMod(options);
  const std::vector<Update> updates = RandomUpdateStream(mod, options, stream);
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
      static_cast<double>(engine.stats().SupportChanges() - changes_before) /
      static_cast<double>(updates.size());
  return {m_per_update, seconds * 1e6 / static_cast<double>(updates.size())};
}

void UpdateCostVsN(bench::JsonSink* sink) {
  std::printf(
      "E4: per-update cost with bounded support changes vs N.\n"
      "Corollary 6's premise is that m (support changes between updates) "
      "stays bounded, so the update gap shrinks ~1/N^2 to hold the\n"
      "crossing count per gap constant as N grows.\n"
      "Claim: us_per_update / log2 N is flat (Corollary 6).\n");
  std::printf("Each row: %d fresh passes, each pass over every N in turn; "
              "us columns are the median, min and max.\n",
              kPasses);
  bench::Table table(sink, "E4_corollary6_update",
                     {"N", "m_per_update", "us_per_update", "us_min",
                      "us_max", "norm_us"});
  const std::vector<size_t> sizes = {1000, 2000, 4000, 8000, 16000};
  std::vector<double> m_per_update(sizes.size());
  std::vector<std::vector<double>> us(sizes.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      const auto [m, us_per_update] = TimeOnePass(sizes[i]);
      MODB_CHECK(pass == 0 || m == m_per_update[i])
          << "m per update differs between passes at N=" << sizes[i];
      m_per_update[i] = m;
      us[i].push_back(us_per_update);
    }
  }
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::sort(us[i].begin(), us[i].end());
    const double median = us[i][us[i].size() / 2];
    table.Row({static_cast<double>(sizes[i]), m_per_update[i], median,
               us[i].front(), us[i].back(), median / bench::Log2(sizes[i])});
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
