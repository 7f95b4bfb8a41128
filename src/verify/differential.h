#ifndef MODB_VERIFY_DIFFERENTIAL_H_
#define MODB_VERIFY_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "verify/audit.h"

namespace modb {

// One seed-deterministic differential run: the same randomized workload is
// driven simultaneously through the FutureQueryEngine, the QueryServer and
// (over the recorded history) the PastQueryEngine, and their k-NN /
// within-threshold answers are compared at randomized probe times against
// the Θ(N²) cell-decomposition oracle (src/baseline/naive) and direct O(N)
// snapshots. Everything derives from `seed`; a failure reproduces from the
// printed options alone.
struct FuzzOptions {
  uint64_t seed = 1;
  size_t num_objects = 24;
  size_t num_updates = 60;  // The CLI's --ops.
  size_t num_probes = 24;   // Snapshot probes spread across the replay.
  size_t k = 3;
  double within_threshold = 150.0 * 150.0;
  // Audit every engine after every processed event (SweepAuditor).
  bool audit = false;
  // Workload shape, forwarded to src/workload/generator.
  double box = 300.0;
  double speed_max = 12.0;
  double mean_gap = 0.5;
};

struct FuzzFailure {
  std::string what;  // e.g. "future-knn mismatch at t=3.25: ..."
  double time = 0.0;

  std::string ToString() const;
};

struct FuzzResult {
  size_t probes = 0;        // Snapshot comparisons performed.
  size_t timeline_probes = 0;  // Past-vs-naive timeline comparisons.
  size_t audits = 0;        // SweepAuditor runs across all engines.
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToString() const;
};

// Runs one differential iteration. Deterministic in `options`.
FuzzResult RunDifferential(const FuzzOptions& options);

// Given options whose run fails, returns the smallest update-stream prefix
// length that still fails (the generator consumes randomness sequentially,
// so truncating the count replays an exact prefix). `fails` defaults to
// "RunDifferential reports a failure"; tests inject synthetic predicates.
size_t ShrinkUpdatePrefix(
    FuzzOptions options,
    const std::function<bool(const FuzzOptions&)>& fails = nullptr);

// The modb_fuzz invocation reproducing `options`.
std::string ReproCommand(const FuzzOptions& options);

// "{o1, o2, ...}" for failure messages.
std::string AnswerSetToString(const std::set<ObjectId>& set);

}  // namespace modb

#endif  // MODB_VERIFY_DIFFERENTIAL_H_
