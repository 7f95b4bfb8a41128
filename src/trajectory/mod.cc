#include "trajectory/mod.h"

#include <sstream>

namespace modb {

const Trajectory* MovingObjectDatabase::Find(ObjectId oid) const {
  auto it = objects_.find(oid);
  return it == objects_.end() ? nullptr : &it->second;
}

Status MovingObjectDatabase::Check(const Update& update) const {
  if (update.time < last_update_time_) {
    std::ostringstream msg;
    msg << "update at " << update.time << " precedes last update time "
        << last_update_time_;
    return Status::FailedPrecondition(msg.str());
  }
  switch (update.kind) {
    case UpdateKind::kNew:
      if (Contains(update.oid)) {
        return Status::AlreadyExists("new() on an existing OID");
      }
      return CheckUpdateDim(update, dim_);
    case UpdateKind::kTerminate: {
      const Trajectory* trajectory = Find(update.oid);
      if (trajectory == nullptr) {
        return Status::NotFound("terminate() on an unknown OID");
      }
      return trajectory->CheckTerminate(update.time);
    }
    case UpdateKind::kChdir: {
      const Trajectory* trajectory = Find(update.oid);
      if (trajectory == nullptr) {
        return Status::NotFound("chdir() on an unknown OID");
      }
      MODB_RETURN_IF_ERROR(CheckUpdateDim(update, dim_));
      if (!trajectory->DefinedAt(update.time)) {
        return Status::OutOfRange(
            "chdir(): trajectory not defined at the update time");
      }
      return trajectory->CheckTurn(update.time, update.velocity.dim());
    }
  }
  return Status::Ok();
}

Status MovingObjectDatabase::Apply(const Update& update) {
  MODB_RETURN_IF_ERROR(Check(update));
  ApplyChecked(update);
  return Status::Ok();
}

void MovingObjectDatabase::ApplyChecked(const Update& update) {
  MODB_DCHECK(Check(update).ok());
  switch (update.kind) {
    case UpdateKind::kNew:
      objects_.emplace(update.oid,
                       Trajectory::Linear(update.time, update.position,
                                          update.velocity));
      break;
    case UpdateKind::kTerminate:
      MODB_CHECK(objects_.at(update.oid).Terminate(update.time).ok());
      break;
    case UpdateKind::kChdir:
      MODB_CHECK(
          objects_.at(update.oid).AddTurn(update.time, update.velocity).ok());
      break;
  }
  last_update_time_ = update.time;
}

Status MovingObjectDatabase::ApplyAll(const std::vector<Update>& updates) {
  for (const Update& u : updates) {
    MODB_RETURN_IF_ERROR(Apply(u));
  }
  return Status::Ok();
}

Status MovingObjectDatabase::Restore(ObjectId oid, Trajectory trajectory) {
  if (Contains(oid)) {
    return Status::AlreadyExists("Restore() on an existing OID");
  }
  MODB_RETURN_IF_ERROR(trajectory.Validate());
  if (trajectory.dim() != dim_) {
    return Status::InvalidArgument("Restore(): dimension mismatch");
  }
  for (double turn : trajectory.Turns()) {
    if (turn > last_update_time_) {
      return Status::FailedPrecondition(
          "Restore(): turn after the last update time violates "
          "Definition 2");
    }
  }
  objects_.emplace(oid, std::move(trajectory));
  return Status::Ok();
}

std::vector<ObjectId> MovingObjectDatabase::AliveAt(double t) const {
  std::vector<ObjectId> alive;
  for (const auto& [oid, trajectory] : objects_) {
    if (trajectory.DefinedAt(t)) alive.push_back(oid);
  }
  return alive;
}

size_t MovingObjectDatabase::TotalPieces() const {
  size_t total = 0;
  for (const auto& [oid, trajectory] : objects_) {
    total += trajectory.pieces().size();
  }
  return total;
}

}  // namespace modb
