#ifndef MODB_CORE_FUTURE_ENGINE_H_
#define MODB_CORE_FUTURE_ENGINE_H_

#include <memory>

#include "core/sweep_state.h"
#include "trajectory/mod.h"

namespace modb {

// Evaluates future/continuing queries (Definition 5) eagerly: the engine
// reads a MOD it does not own (as PastQueryEngine does), initializes the
// sweep over the current objects (Theorem 5.1: O(N log N)), and then
// maintains the support as updates arrive (Theorem 5.2: O(m log N) per
// update with m support changes in between; Corollary 6: O(log N) when m
// is bounded). Several engines may read one MOD; each update is applied
// to it once (QueryServer runs one engine per g-distance group over its
// shard's MOD).
//
// Usage:
//   MovingObjectDatabase mod = ...;      // outlives the engine
//   FutureQueryEngine engine(mod, gdist, start_time);
//   KnnKernel knn(&engine.state(), k);   // attach kernels, then
//   engine.Start();                      // found: each reads its answer
//   engine.ApplyUpdate(mod, u1);         // valid answers stream to kernels
//   engine.AdvanceTo(t);                 // or advance the clock explicitly
class FutureQueryEngine {
 public:
  // The engine reads `mod`, which must outlive it and change only through
  // the update protocol below. `start_time` must be at or after the MOD's
  // last update time (you cannot start a future query in the past).
  // `horizon` bounds the query interval's right end.
  FutureQueryEngine(const MovingObjectDatabase& mod, GDistancePtr gdist,
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

  // Applies one database update to `mod`, which must be the MOD this
  // engine reads (CHECKed: the engine holds it read-only and is handed
  // write access for this call). A rejected update changes nothing;
  // otherwise this is BeginUpdate, mod.Apply and FinishUpdate in turn.
  Status ApplyUpdate(MovingObjectDatabase& mod, const Update& update);

  // The two halves of ApplyUpdate, for a caller that applies each update
  // once to a MOD several engines read (QueryServer): every engine's
  // BeginUpdate, one mod.Apply, then every engine's FinishUpdate. The
  // caller has validated the update (MovingObjectDatabase::Check) and its
  // time is at or after now().
  //
  // BeginUpdate processes every event at or before the update time: those
  // support changes were committed by the old motion, which is valid
  // through the update instant, so they run against the MOD as it was.
  void BeginUpdate(const Update& update);
  // FinishUpdate reads the updated MOD: the Definition 3 mutation of the
  // sweep and the repair of the affected neighbourhood per §5's three
  // cases.
  void FinishUpdate(const Update& update);

  // Theorem 10: a chdir on the *query* trajectory. Every object's curve
  // changes, but all values at now() are unchanged, so the order is kept
  // and only the N-1 pair events are rebuilt (O(N)).
  void ChangeQueryGDistance(GDistancePtr gdist);

  const SweepStats& stats() const { return state_->stats(); }

 private:
  const MovingObjectDatabase& mod_;
  std::unique_ptr<SweepState> state_;
  bool started_ = false;
  // Support changes before the pending update's BeginUpdate: the update's
  // m, observed by FinishUpdate, counts from here.
  uint64_t support_changes_before_update_ = 0;
};

}  // namespace modb

#endif  // MODB_CORE_FUTURE_ENGINE_H_
