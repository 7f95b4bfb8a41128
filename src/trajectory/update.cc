#include "trajectory/update.h"

#include <sstream>

namespace modb {

const char* UpdateKindToString(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kNew:
      return "new";
    case UpdateKind::kTerminate:
      return "terminate";
    case UpdateKind::kChdir:
      return "chdir";
  }
  return "unknown";
}

Update Update::NewObject(ObjectId oid, double time, Vec position,
                         Vec velocity) {
  Update u;
  u.kind = UpdateKind::kNew;
  u.oid = oid;
  u.time = time;
  u.position = std::move(position);
  u.velocity = std::move(velocity);
  return u;
}

Update Update::NewObjectGlobal(ObjectId oid, double time, const Vec& a,
                               const Vec& b) {
  return NewObject(oid, time, a * time + b, a);
}

Update Update::TerminateObject(ObjectId oid, double time) {
  Update u;
  u.kind = UpdateKind::kTerminate;
  u.oid = oid;
  u.time = time;
  return u;
}

Update Update::ChangeDirection(ObjectId oid, double time, Vec velocity) {
  Update u;
  u.kind = UpdateKind::kChdir;
  u.oid = oid;
  u.time = time;
  u.velocity = std::move(velocity);
  return u;
}

Status CheckUpdateDim(const Update& update, size_t dim) {
  switch (update.kind) {
    case UpdateKind::kNew:
      if (update.position.dim() != dim || update.velocity.dim() != dim) {
        return Status::InvalidArgument("new(): dimension mismatch");
      }
      break;
    case UpdateKind::kChdir:
      if (update.velocity.dim() != dim) {
        return Status::InvalidArgument("chdir(): dimension mismatch");
      }
      break;
    case UpdateKind::kTerminate:
      break;
  }
  return Status::Ok();
}

std::string Update::ToString() const {
  std::ostringstream out;
  out << UpdateKindToString(kind) << "(o" << oid << ", " << time;
  switch (kind) {
    case UpdateKind::kNew:
      out << ", A=" << velocity.ToString() << ", pos=" << position.ToString();
      break;
    case UpdateKind::kChdir:
      out << ", A=" << velocity.ToString();
      break;
    case UpdateKind::kTerminate:
      break;
  }
  out << ")";
  return out.str();
}

}  // namespace modb
