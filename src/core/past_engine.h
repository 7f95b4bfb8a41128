#ifndef MODB_CORE_PAST_ENGINE_H_
#define MODB_CORE_PAST_ENGINE_H_

#include <memory>
#include <optional>

#include "core/sweep_state.h"
#include "geom/interval.h"
#include "trajectory/mod.h"

namespace modb {

// Evaluates a past query (Definition 5) over a fully-updated MOD by
// sweeping the query interval once (Theorem 4: O((m + N) log N) with m
// support changes). The MOD's recorded history already contains every
// structural change — creations and terminations are replayed as the sweep
// passes their times, and turns are absorbed into the piecewise curves, so
// they cost nothing beyond the curve pieces themselves.
//
// Usage:
//   PastQueryEngine engine(mod, gdist, interval);
//   KnnKernel knn(&engine.state(), k);     // attaches as a listener
//   engine.Run();                          // notifications stream to knn
class PastQueryEngine {
 public:
  PastQueryEngine(const MovingObjectDatabase& mod, GDistancePtr gdist,
                  TimeInterval interval,
                  EventQueueKind queue_kind = EventQueueKind::kIndexed);

  SweepState& state() { return *state_; }
  const MovingObjectDatabase& mod() const { return mod_; }
  const TimeInterval& interval() const { return interval_; }

  // Performs the sweep: founds the order at interval.lo with the objects
  // alive then, in one sorted pass (SweepState::InsertObjects), replays
  // creations/terminations inside the interval, processes every
  // intersection event, and stops at interval.hi. May be called once.
  //
  // With `admission_threshold`, objects whose curve cannot come down to it
  // during the interval (GDistance::MayReach is false) are neither
  // inserted nor erased. Only a run whose listeners are all within kernels
  // at that threshold may pass it: such an object would sit right of the
  // sentinel throughout, so their answers are exactly those of the full
  // sweep, while a k-NN kernel must see every object.
  void Run(std::optional<double> admission_threshold = std::nullopt);

  const SweepStats& stats() const { return state_->stats(); }

 private:
  const MovingObjectDatabase& mod_;
  TimeInterval interval_;
  std::unique_ptr<SweepState> state_;
  bool ran_ = false;
};

}  // namespace modb

#endif  // MODB_CORE_PAST_ENGINE_H_
