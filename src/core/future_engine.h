#ifndef MODB_CORE_FUTURE_ENGINE_H_
#define MODB_CORE_FUTURE_ENGINE_H_

#include <memory>

#include "core/sweep_state.h"
#include "trajectory/mod.h"

namespace modb {

// Evaluates future/continuing queries (Definition 5) eagerly: the engine
// owns a MOD, initializes the sweep over the current objects (Theorem 5.1:
// O(N log N)), and then maintains the support as updates arrive
// (Theorem 5.2: O(m log N) per update with m support changes in between;
// Corollary 6: O(log N) when m is bounded).
//
// Usage:
//   FutureQueryEngine engine(std::move(mod), gdist, start_time);
//   KnnKernel knn(&engine.state(), k);   // attach kernels, then
//   engine.Start();                      // found: each reads its answer
//   engine.ApplyUpdate(u1);              // valid answers stream to kernels
//   engine.AdvanceTo(t);                 // or advance the clock explicitly
class FutureQueryEngine {
 public:
  // The engine takes ownership of `mod`; `start_time` must be at or after
  // the MOD's last update time (you cannot start a future query in the
  // past). `horizon` bounds the query interval's right end.
  FutureQueryEngine(MovingObjectDatabase mod, GDistancePtr gdist,
                    double start_time, double horizon = kInf,
                    EventQueueKind queue_kind = EventQueueKind::kIndexed);

  SweepState& state() { return *state_; }
  const MovingObjectDatabase& mod() const { return mod_; }
  double now() const { return state_->now(); }
  bool started() const { return started_; }

  // Founds the sweep with every object alive at the start time in one
  // sorted pass (SweepState::InsertObjects): O(N log N). Kernels attached
  // before this read their answer off the founded order once
  // (OnInsertBatch); a kernel attached later adopts it in its constructor.
  void Start();

  // Advances the sweep clock, processing all intersection events up to `t`.
  void AdvanceTo(double t);

  // Applies one database update: first processes every event at or before
  // the update time (those support changes were committed by the old
  // motion, which is valid through the update instant), then performs the
  // Definition 3 mutation and repairs the affected neighborhood per §5's
  // three cases.
  Status ApplyUpdate(const Update& update);

  // Theorem 10: a chdir on the *query* trajectory. Every object's curve
  // changes, but all values at now() are unchanged, so the order is kept
  // and only the N-1 pair events are rebuilt (O(N)).
  void ChangeQueryGDistance(GDistancePtr gdist);

  const SweepStats& stats() const { return state_->stats(); }

 private:
  MovingObjectDatabase mod_;
  std::unique_ptr<SweepState> state_;
  bool started_ = false;
};

}  // namespace modb

#endif  // MODB_CORE_FUTURE_ENGINE_H_
