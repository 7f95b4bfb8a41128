#ifndef MODB_TRAJECTORY_UPDATE_H_
#define MODB_TRAJECTORY_UPDATE_H_

#include <string>

#include "common/status.h"
#include "geom/vec.h"
#include "trajectory/trajectory.h"

namespace modb {

// The three update operations of Definition 3. Updates are the only
// external events in a MOD; they arrive in chronological order.
enum class UpdateKind {
  kNew,        // new(o, τ, A, B): create an object moving linearly from τ.
  kTerminate,  // terminate(o, τ): the object ceases to exist after τ.
  kChdir,      // chdir(o, τ, A): change direction/speed at τ, position
               // continuous.
};

const char* UpdateKindToString(UpdateKind kind);

// A single update. `velocity` is the paper's A; `position` is the object's
// location at `time` (only meaningful for kNew; chdir keeps the position
// implied by the old motion, and terminate needs none).
struct Update {
  UpdateKind kind = UpdateKind::kNew;
  ObjectId oid = kInvalidObjectId;
  double time = 0.0;
  Vec velocity;  // kNew, kChdir.
  Vec position;  // kNew only: position at `time`.

  // new(o, τ, A, B) with B re-anchored: the object is at `position` at
  // time τ and moves with `velocity`.
  static Update NewObject(ObjectId oid, double time, Vec position,
                          Vec velocity);
  // new(o, τ, A, B) in the paper's global form x = A t + B.
  static Update NewObjectGlobal(ObjectId oid, double time, const Vec& a,
                                const Vec& b);
  static Update TerminateObject(ObjectId oid, double time);
  static Update ChangeDirection(ObjectId oid, double time, Vec velocity);

  std::string ToString() const;
};

// The update's shape against a `dim`-dimensional database: kInvalidArgument
// unless every vector the kind carries (new: position and velocity; chdir:
// velocity) has `dim` components. The one dimension check of an update —
// the MOD and every durable boundary call it.
Status CheckUpdateDim(const Update& update, size_t dim);

}  // namespace modb

#endif  // MODB_TRAJECTORY_UPDATE_H_
