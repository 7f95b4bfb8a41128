#ifndef MODB_QUERIES_WITHIN_H_
#define MODB_QUERIES_WITHIN_H_

#include <set>
#include <vector>

#include "core/answer.h"
#include "core/past_engine.h"
#include "core/sweep_state.h"

namespace modb {

// Incremental range ("within distance") maintenance: the objects o with
// f_o(t) <= threshold (Example 11: "all flights within 50 km of Flight
// 623", with f the squared Euclidean g-distance and threshold 50km²).
//
// Implementation is the paper's extension of the precedence relation to
// real numbers: a constant *sentinel* curve at the threshold value joins
// the order, and the answer is exactly the set of objects preceding the
// sentinel. Threshold crossings then ARE order swaps with the sentinel —
// no separate machinery.
class WithinKernel : public SweepListener {
 public:
  // Attaches to `state` and inserts a sentinel with `sentinel_oid` (an OID
  // that must not collide with any object). The state must already be at
  // the time from which answers are wanted. `cost`, when non-null, is this
  // query's ledger cell: the timeline charges answer churn to it, and
  // every swap against this kernel's sentinel (a threshold crossing —
  // work only this query causes) charges sentinel_swaps.
  WithinKernel(SweepState* state, ObjectId sentinel_oid, double threshold,
               obs::CostCell* cost = nullptr);
  // Detaches from the state and removes the sentinel from the order, so a
  // kernel can be destroyed while other queries keep sharing the sweep.
  ~WithinKernel() override;

  WithinKernel(const WithinKernel&) = delete;
  WithinKernel& operator=(const WithinKernel&) = delete;

  double threshold() const { return threshold_; }
  ObjectId sentinel() const { return sentinel_; }
  const std::set<ObjectId>& Current() const { return current_; }
  AnswerTimeline& timeline() { return timeline_; }

  void OnSwap(double time, ObjectId left, ObjectId right) override;
  void OnInsert(double time, ObjectId oid) override;
  // A founding: the answer is every object left of the sentinel, read once.
  void OnInsertBatch(double time, const std::vector<ObjectId>& oids) override;
  void OnErase(double time, ObjectId oid) override;

 private:
  // Sets the answer to the objects preceding the sentinel (other queries'
  // sentinels may share the order; they are not answers).
  void AdoptBelowSentinel();

  SweepState* state_;
  ObjectId sentinel_;
  double threshold_;
  std::set<ObjectId> current_;
  AnswerTimeline timeline_;
  obs::CostCell* cost_ = nullptr;
};

// One-shot past range query over `interval`. The sweep admits only the
// objects whose curve may come down to `threshold` (GDistance::MayReach);
// the timeline is the one the full sweep would produce.
AnswerTimeline PastWithin(const MovingObjectDatabase& mod, GDistancePtr gdist,
                          double threshold, TimeInterval interval,
                          ObjectId sentinel_oid = -1000,
                          EventQueueKind queue_kind = EventQueueKind::kIndexed);

// Direct O(N) snapshot evaluation: one GDistance::ValueAt per live object
// (see SnapshotKnnRanked on its independence from the engines).
std::set<ObjectId> SnapshotWithin(const MovingObjectDatabase& mod,
                                  const GDistance& gdist, double threshold,
                                  double t);

}  // namespace modb

#endif  // MODB_QUERIES_WITHIN_H_
