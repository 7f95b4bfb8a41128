#ifndef MODB_TRAJECTORY_MOD_H_
#define MODB_TRAJECTORY_MOD_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "trajectory/trajectory.h"
#include "trajectory/update.h"

namespace modb {

// A moving object database (Definition 2): a finite set of OIDs, a mapping
// from OIDs to trajectories, and the last update time τ. Every turn of
// every trajectory is at or before τ — trajectories are known only as
// currently extrapolated; everything after τ is prediction until further
// updates arrive.
//
// Terminated objects remain in the map with a bounded domain (the paper's
// terminate conjoins `t <= τ`), so past queries still see them during their
// lifetime.
class MovingObjectDatabase {
 public:
  // `dim` is the dimension n of the underlying space; `initial_time` is the
  // initial τ (updates must be at or after it).
  explicit MovingObjectDatabase(size_t dim, double initial_time = 0.0)
      : dim_(dim), last_update_time_(initial_time) {
    MODB_CHECK_GT(dim, 0u);
  }

  size_t dim() const { return dim_; }
  // The paper's τ: the time of the last update.
  double last_update_time() const { return last_update_time_; }
  size_t size() const { return objects_.size(); }

  bool Contains(ObjectId oid) const { return objects_.count(oid) > 0; }
  // Null if absent.
  const Trajectory* Find(ObjectId oid) const;

  // Applies one update with Definition 3's preconditions. Chronological
  // order is enforced non-strictly (time >= τ): the paper requires strict
  // order, but simultaneous updates to distinct objects are common in
  // practice and are harmless to the evaluation algorithms. Nothing
  // changes unless Check(update) is OK: Apply is Check, then ApplyChecked.
  Status Apply(const Update& update);

  // Apply's validation alone: OK exactly when Apply(update) would succeed.
  // Lets a caller that must act before the mutation (QueryServer advances
  // its sweeps to the update time first) refuse a bad update untouched.
  Status Check(const Update& update) const;

  // Apply's mutation alone, for a caller whose Check(update) just returned
  // OK (debug builds re-check).
  void ApplyChecked(const Update& update);

  // Applies a chronologically sorted batch; stops at the first failure.
  Status ApplyAll(const std::vector<Update>& updates);

  // Installs a complete trajectory directly — checkpoint restoration and
  // deserialization, not normal operation (last_update_time is unchanged).
  // The trajectory must validate and all its turns must be at or before
  // the current last_update_time (Definition 2's invariant).
  Status Restore(ObjectId oid, Trajectory trajectory);

  // OIDs whose trajectory is defined at time t, in increasing OID order.
  std::vector<ObjectId> AliveAt(double t) const;

  // Deterministic iteration over all (oid, trajectory) pairs.
  const std::map<ObjectId, Trajectory>& objects() const { return objects_; }

  // Total number of linear pieces across all trajectories — the MOD "size"
  // that Proposition 1's polynomial bound is measured against.
  size_t TotalPieces() const;

 private:
  size_t dim_;
  double last_update_time_;
  std::map<ObjectId, Trajectory> objects_;
};

}  // namespace modb

#endif  // MODB_TRAJECTORY_MOD_H_
