#include "queries/knn.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace modb {

KnnKernel::KnnKernel(SweepState* state, size_t k, obs::CostCell* cost)
    : state_(state), k_(k), timeline_(state->now()) {
  MODB_CHECK(state_ != nullptr);
  MODB_CHECK_GT(k, 0u);
  // Before the initial Record, so the ledger sees every change the
  // registry metric counts.
  timeline_.SetCostSink(cost);
  state_->AddListener(this);
  // Adopt any objects already present (kernels attached mid-sweep).
  AdoptFront();
  timeline_.Record(state_->now(), current_);
}

KnnKernel::~KnnKernel() { state_->RemoveListener(this); }

void KnnKernel::AdoptFront() {
  current_.clear();
  const OrderedSequence& order = state_->order();
  if (order.empty()) return;
  for (std::optional<ObjectId> oid = order.Front();
       oid.has_value() && current_.size() < k_; oid = order.Next(*oid)) {
    if (!state_->IsSentinel(*oid)) current_.insert(*oid);
  }
}

size_t KnnKernel::ObjectRank(ObjectId oid) const {
  size_t rank = state_->order().Rank(oid);
  for (ObjectId sentinel : state_->sentinels()) {
    if (state_->order().Rank(sentinel) < state_->order().Rank(oid)) --rank;
  }
  return rank;
}

ObjectId KnnKernel::ObjectAt(size_t rank) const {
  const OrderedSequence& order = state_->order();
  // Fixed point: the global index of the rank-th non-sentinel is the rank
  // plus the number of sentinels at or before it. Converges in at most
  // |sentinels| + 1 rounds (the index only grows).
  size_t global = rank;
  while (true) {
    size_t offset = 0;
    for (ObjectId sentinel : state_->sentinels()) {
      if (order.Rank(sentinel) <= global) ++offset;
    }
    const size_t next = rank + offset;
    if (next == global) break;
    global = next;
  }
  if (global >= order.size()) return kInvalidObjectId;
  const ObjectId oid = order.At(global);
  MODB_DCHECK(!state_->IsSentinel(oid));
  return oid;
}

void KnnKernel::OnSwap(double time, ObjectId left, ObjectId right) {
  // Swaps with a sentinel never change which *objects* are in the lowest k
  // non-sentinel ranks.
  if (state_->IsSentinel(left) || state_->IsSentinel(right)) return;
  // Only a swap across the k-boundary changes membership: `left` held
  // object-rank k-1 and `right` object-rank k; they exchange.
  if (current_.count(left) > 0 && current_.count(right) == 0) {
    MODB_DCHECK(ObjectRank(right) == k_ - 1);
    current_.erase(left);
    current_.insert(right);
    timeline_.Record(time, current_);
  }
}

void KnnKernel::OnInsert(double time, ObjectId oid) {
  if (state_->IsSentinel(oid)) return;
  const size_t rank = ObjectRank(oid);
  if (rank >= k_) return;
  current_.insert(oid);
  if (current_.size() > k_) {
    // The object previously at rank k-1 slid to rank k and drops out.
    const ObjectId pushed = ObjectAt(k_);
    MODB_DCHECK(pushed != kInvalidObjectId);
    current_.erase(pushed);
  }
  timeline_.Record(time, current_);
}

void KnnKernel::OnInsertBatch(double time, const std::vector<ObjectId>&) {
  AdoptFront();
  timeline_.Record(time, current_);
}

void KnnKernel::OnErase(double time, ObjectId oid) {
  if (current_.erase(oid) == 0) return;
  // Object-rank k-1 (if occupied post-erase) is the newly admitted object.
  const ObjectId admitted = ObjectAt(k_ - 1);
  if (admitted != kInvalidObjectId) current_.insert(admitted);
  timeline_.Record(time, current_);
}

AnswerTimeline PastKnn(const MovingObjectDatabase& mod, GDistancePtr gdist,
                       size_t k, TimeInterval interval) {
  PastQueryEngine engine(mod, std::move(gdist), interval);
  KnnKernel kernel(&engine.state(), k);
  engine.Run();
  kernel.timeline().Finish(interval.hi);
  return std::move(kernel.timeline());
}

std::vector<RankedCandidate> SnapshotKnnRanked(const MovingObjectDatabase& mod,
                                               const GDistance& gdist,
                                               size_t k, double t) {
  std::vector<RankedCandidate> ranked;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.DefinedAt(t)) continue;
    ranked.push_back(RankedCandidate{oid, gdist.ValueAt(trajectory, t)});
  }
  // RankedCandidate's < is a total order, so the k best are the same
  // whichever way they are selected.
  if (k < ranked.size()) {
    std::nth_element(ranked.begin(), ranked.begin() + k, ranked.end());
    ranked.resize(k);
  }
  std::sort(ranked.begin(), ranked.end());
  return ranked;
}

std::set<ObjectId> SnapshotKnn(const MovingObjectDatabase& mod,
                               const GDistance& gdist, size_t k, double t) {
  std::set<ObjectId> answer;
  for (const RankedCandidate& candidate : SnapshotKnnRanked(mod, gdist, k, t)) {
    answer.insert(candidate.oid);
  }
  return answer;
}

}  // namespace modb
