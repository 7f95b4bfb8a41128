#include "queries/within.h"

#include "obs/query_cost.h"

namespace modb {

WithinKernel::WithinKernel(SweepState* state, ObjectId sentinel_oid,
                           double threshold, obs::CostCell* cost)
    : state_(state),
      sentinel_(sentinel_oid),
      threshold_(threshold),
      timeline_(state->now()),
      cost_(cost) {
  MODB_CHECK(state_ != nullptr);
  MODB_CHECK(!state_->ContainsObject(sentinel_oid))
      << "sentinel OID collides with an object";
  // Before the initial Record, so the ledger sees every change the
  // registry metric counts.
  timeline_.SetCostSink(cost);
  state_->AddListener(this);
  state_->InsertSentinel(sentinel_oid, threshold);
  // Adopt objects already below the threshold (kernel attached mid-sweep).
  AdoptBelowSentinel();
  timeline_.Record(state_->now(), current_);
}

void WithinKernel::AdoptBelowSentinel() {
  current_.clear();
  const OrderedSequence& order = state_->order();
  for (ObjectId oid = order.Front(); oid != sentinel_; oid = *order.Next(oid)) {
    if (!state_->IsSentinel(oid)) current_.insert(oid);
  }
}

WithinKernel::~WithinKernel() {
  state_->RemoveListener(this);
  if (state_->ContainsObject(sentinel_)) state_->EraseObject(sentinel_);
}

void WithinKernel::OnSwap(double time, ObjectId left, ObjectId right) {
  if (right == sentinel_ && !state_->IsSentinel(left)) {
    // `left` rose above the threshold.
    if (cost_ != nullptr) {
      cost_->sentinel_swaps.fetch_add(1, std::memory_order_relaxed);
    }
    current_.erase(left);
    timeline_.Record(time, current_);
  } else if (left == sentinel_ && !state_->IsSentinel(right)) {
    // `right` dropped below the threshold.
    if (cost_ != nullptr) {
      cost_->sentinel_swaps.fetch_add(1, std::memory_order_relaxed);
    }
    current_.insert(right);
    timeline_.Record(time, current_);
  }
}

void WithinKernel::OnInsert(double time, ObjectId oid) {
  if (state_->IsSentinel(oid)) return;  // Ours or another query's.
  if (state_->order().Rank(oid) < state_->order().Rank(sentinel_)) {
    current_.insert(oid);
    timeline_.Record(time, current_);
  }
}

void WithinKernel::OnInsertBatch(double time, const std::vector<ObjectId>&) {
  AdoptBelowSentinel();
  timeline_.Record(time, current_);
}

void WithinKernel::OnErase(double time, ObjectId oid) {
  if (current_.erase(oid) > 0) {
    timeline_.Record(time, current_);
  }
}

AnswerTimeline PastWithin(const MovingObjectDatabase& mod, GDistancePtr gdist,
                          double threshold, TimeInterval interval,
                          ObjectId sentinel_oid, EventQueueKind queue_kind) {
  PastQueryEngine engine(mod, std::move(gdist), interval, queue_kind);
  WithinKernel kernel(&engine.state(), sentinel_oid, threshold);
  engine.Run(threshold);
  kernel.timeline().Finish(interval.hi);
  return std::move(kernel.timeline());
}

std::set<ObjectId> SnapshotWithin(const MovingObjectDatabase& mod,
                                  const GDistance& gdist, double threshold,
                                  double t) {
  std::set<ObjectId> answer;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.DefinedAt(t)) continue;
    if (gdist.ValueAt(trajectory, t) <= threshold) answer.insert(oid);
  }
  return answer;
}

}  // namespace modb
