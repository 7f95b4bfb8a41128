#include "core/future_engine.h"

#include <utility>
#include <vector>

#include "obs/modb_metrics.h"
#include "obs/query_cost.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace modb {

FutureQueryEngine::FutureQueryEngine(const MovingObjectDatabase& mod,
                                     GDistancePtr gdist, double start_time,
                                     double horizon,
                                     EventQueueKind queue_kind)
    : mod_(mod) {
  MODB_CHECK_GE(start_time, mod_.last_update_time())
      << "future queries start at or after the MOD's last update";
  state_ = std::make_unique<SweepState>(std::move(gdist), start_time, horizon,
                                        queue_kind);
}

void FutureQueryEngine::Start() {
  MODB_CHECK(!started_) << "Start() may be called once";
  started_ = true;
  obs::TraceSpan span(obs::SpanName::kEngineStart, obs::kTraceNoId,
                      state_->now(), mod_.objects().size());
  std::vector<std::pair<ObjectId, const Trajectory*>> alive;
  alive.reserve(mod_.objects().size());
  for (const auto& [oid, trajectory] : mod_.objects()) {
    // An object terminated at or before the start time has already ceased:
    // its erase "event" (the terminate update, in live operation) is in the
    // past. Its domain is closed, so DefinedAt alone would admit an object
    // ending exactly at now — a zombie the sweep would never erase. This
    // matters when the engine is rebuilt over a recovered MOD whose last
    // replayed update was a terminate.
    if (trajectory.DefinedAt(state_->now()) &&
        trajectory.end_time() > state_->now()) {
      alive.emplace_back(oid, &trajectory);
    }
  }
  state_->InsertObjects(alive);
  obs::M().future_start_seconds->Observe(1e-6 * span.Close());
}

void FutureQueryEngine::AdvanceTo(double t) {
  MODB_CHECK(started_);
  state_->AdvanceTo(t);
}

Status FutureQueryEngine::ApplyUpdate(MovingObjectDatabase& mod,
                                      const Update& update) {
  MODB_CHECK(&mod == &mod_) << "ApplyUpdate must be given the engine's MOD";
  if (update.time < state_->now()) {
    return Status::FailedPrecondition("update precedes the sweep time");
  }
  MODB_RETURN_IF_ERROR(mod.Check(update));
  BeginUpdate(update);
  mod.ApplyChecked(update);
  FinishUpdate(update);
  return Status::Ok();
}

void FutureQueryEngine::BeginUpdate(const Update& update) {
  MODB_CHECK(started_);
  MODB_CHECK_GE(update.time, state_->now());
  support_changes_before_update_ = state_->stats().SupportChanges();
  AdvanceTo(update.time);
}

void FutureQueryEngine::FinishUpdate(const Update& update) {
  MODB_CHECK(started_);
  MODB_CHECK_EQ(state_->now(), update.time) << "FinishUpdate before Begin";
  obs::ModbMetrics& metrics = obs::M();
  metrics.future_updates->Increment();
  obs::TraceSpan span(obs::SpanName::kUpdateApply, update.oid, update.time,
                      static_cast<uint64_t>(update.kind));
  switch (update.kind) {
    case UpdateKind::kNew:
      state_->InsertObject(update.oid, *mod_.Find(update.oid));
      break;
    case UpdateKind::kTerminate:
      state_->EraseObject(update.oid);
      break;
    case UpdateKind::kChdir:
      state_->ReplaceCurve(update.oid, *mod_.Find(update.oid));
      break;
  }
  // A chdir under a *piecewise*-continuous g-distance (the paper's relaxed
  // setting, e.g. interception time with a speed change) may have jumped
  // the object's value: the repair events land at exactly the update
  // instant, so drain them now — kernels must be current when this call
  // returns.
  state_->AdvanceTo(update.time);
  metrics.future_update_support_changes->Observe(static_cast<double>(
      state_->stats().SupportChanges() - support_changes_before_update_));
  if (obs::CostCell* cost = state_->cost_sink(); cost != nullptr) {
    cost->updates.fetch_add(1, std::memory_order_relaxed);
  }
  metrics.future_update_seconds->Observe(1e-6 * span.Close());
}

void FutureQueryEngine::ChangeQueryGDistance(GDistancePtr gdist) {
  MODB_CHECK(started_);
  // A query-chdir rebuilds every curve (Theorem 10) — the costliest single
  // operation an engine runs — so it always gets its own span (the
  // internal kSweepRebuild becomes a child) and a slow-log offer carrying
  // that span's trace id for db-trace replay; the record's wall time is
  // the span's own.
  obs::TraceSpan span(obs::SpanName::kQueryChdir, obs::kTraceNoId,
                      state_->now(), state_->size());
  const SweepStats before = state_->stats();
  // Resolve trajectories straight out of the MOD: only objects alive in the
  // sweep are looked up, and nothing is copied for the rebuild.
  state_->ReplaceGDistance(std::move(gdist),
                           [this](ObjectId oid) { return mod_.Find(oid); });
  obs::SlowUpdateRecord record;
  record.wall_micros = span.Close();
  record.trace_id = span.trace_id();
  record.oid = 0;
  record.kind = obs::kChdirKind;
  record.model_time = state_->now();
  record.support_changes =
      state_->stats().SupportChanges() - before.SupportChanges();
  record.crossings = state_->stats().crossings_computed -
                     before.crossings_computed;
  obs::SlowLog::Global().Offer(record);
}

}  // namespace modb
