#ifndef MODB_QUERIES_KNN_H_
#define MODB_QUERIES_KNN_H_

#include <set>
#include <vector>

#include "core/answer.h"
#include "core/future_engine.h"
#include "core/past_engine.h"
#include "core/sweep_state.h"
#include "queries/merge.h"

namespace modb {

// Incremental k-NN maintenance (Examples 6/10: the k lowest curves under
// the g-distance order). Attaches to a SweepState as a listener and keeps
// the current answer — the objects at the k lowest non-sentinel ranks —
// in sync with every support change, at O((S+1) log N) per change where S
// is the number of sentinels in the state (range-query thresholds).
// Sentinels are transparent: a k-NN kernel and several WithinKernels can
// share one sweep, which is the point of the paper's single-support
// design (one order, many queries).
//
// Ties at the k-th rank are resolved by the maintained order (the paper's
// answer is ambiguous at tie instants; between ties the answers agree).
class KnnKernel : public SweepListener {
 public:
  // Attaches to `state` (not owned; must outlive the kernel). `cost`, when
  // non-null, is this query's ledger cell: the timeline charges answer
  // churn to it (see AnswerTimeline::SetCostSink).
  KnnKernel(SweepState* state, size_t k, obs::CostCell* cost = nullptr);
  // Detaches from the state, so a kernel can be destroyed while the sweep
  // keeps running (standing-query removal).
  ~KnnKernel() override;

  KnnKernel(const KnnKernel&) = delete;
  KnnKernel& operator=(const KnnKernel&) = delete;

  size_t k() const { return k_; }
  const std::set<ObjectId>& Current() const { return current_; }

  // The recorded evolution; call Finish(end) when the sweep is done.
  AnswerTimeline& timeline() { return timeline_; }

  void OnSwap(double time, ObjectId left, ObjectId right) override;
  void OnInsert(double time, ObjectId oid) override;
  // A founding: the answer is read once off the front of the order.
  void OnInsertBatch(double time, const std::vector<ObjectId>& oids) override;
  void OnErase(double time, ObjectId oid) override;

 private:
  // Sets the answer to the objects at the k lowest non-sentinel ranks.
  void AdoptFront();
  // Rank of `oid` counting only non-sentinel objects.
  size_t ObjectRank(ObjectId oid) const;
  // The object at non-sentinel rank `rank`, or kInvalidObjectId if fewer
  // objects exist.
  ObjectId ObjectAt(size_t rank) const;

  SweepState* state_;
  size_t k_;
  std::set<ObjectId> current_;
  AnswerTimeline timeline_;
};

// One-shot past k-NN (Theorem 4 path): sweeps `interval` and returns the
// full snapshot timeline.
AnswerTimeline PastKnn(const MovingObjectDatabase& mod, GDistancePtr gdist,
                       size_t k, TimeInterval interval);

// Direct O(N + k log k) snapshot evaluation at one instant: the k objects
// lowest in the canonical (value, oid) order, with their values, in that
// order. Ties at the k-th value resolve by oid. Reads one
// GDistance::ValueAt per live object. Tests check the sweep engines
// against it, but for squared-Euclidean queries it shares the per-segment
// coefficient and Horner helpers with the pooled curve the engines read,
// so a fault in those helpers shows on both sides. The independent checks
// of them are value_at_test, EuclidPoolAppendTest and the differential
// oracle, which build SquaredSeparation curves.
std::vector<RankedCandidate> SnapshotKnnRanked(const MovingObjectDatabase& mod,
                                               const GDistance& gdist,
                                               size_t k, double t);

// SnapshotKnnRanked's members.
std::set<ObjectId> SnapshotKnn(const MovingObjectDatabase& mod,
                               const GDistance& gdist, size_t k, double t);

}  // namespace modb

#endif  // MODB_QUERIES_KNN_H_
