#include "trajectory/trajectory.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace modb {

Trajectory Trajectory::Linear(double start, Vec origin, Vec velocity) {
  MODB_CHECK_EQ(origin.dim(), velocity.dim());
  MODB_CHECK_GT(origin.dim(), 0u);
  Trajectory t;
  t.pieces_.push_back(
      LinearPiece{start, std::move(origin), std::move(velocity)});
  return t;
}

Trajectory Trajectory::Stationary(double start, Vec position) {
  const Vec zero = Vec::Zero(position.dim());
  return Linear(start, std::move(position), zero);
}

Trajectory Trajectory::FromGlobalForm(double start, const Vec& a,
                                      const Vec& b) {
  // x = A t + B anchored at `start`: origin = A * start + B.
  return Linear(start, a * start + b, a);
}

Status Trajectory::CheckTurn(double time, size_t dim) const {
  if (empty()) {
    return Status::FailedPrecondition("AddTurn on an empty trajectory");
  }
  if (dim != this->dim()) {
    return Status::InvalidArgument("velocity dimension mismatch");
  }
  if (terminated()) {
    return Status::FailedPrecondition("AddTurn on a terminated trajectory");
  }
  if (time < pieces_.back().start) {
    return Status::FailedPrecondition(
        "turn time must be at or after the last piece start");
  }
  return Status::Ok();
}

Status Trajectory::AddTurn(double time, Vec velocity) {
  MODB_RETURN_IF_ERROR(CheckTurn(time, velocity.dim()));
  if (time == pieces_.back().start) {
    // A turn at the instant the current piece began replaces its motion
    // (the zero-length old piece would otherwise be degenerate).
    pieces_.back().velocity = std::move(velocity);
    return Status::Ok();
  }
  Vec position = pieces_.back().PositionAt(time);
  pieces_.push_back(LinearPiece{time, std::move(position),
                                std::move(velocity)});
  return Status::Ok();
}

Status Trajectory::CheckTerminate(double time) const {
  if (empty()) {
    return Status::FailedPrecondition("Terminate on an empty trajectory");
  }
  if (terminated()) {
    return Status::FailedPrecondition("trajectory already terminated");
  }
  if (time < pieces_.back().start) {
    return Status::FailedPrecondition(
        "termination time precedes the last piece start");
  }
  return Status::Ok();
}

Status Trajectory::Terminate(double time) {
  MODB_RETURN_IF_ERROR(CheckTerminate(time));
  end_time_ = time;
  return Status::Ok();
}

double Trajectory::start_time() const {
  MODB_CHECK(!empty());
  return pieces_.front().start;
}

std::vector<double> Trajectory::Turns() const {
  std::vector<double> turns;
  for (size_t i = 1; i < pieces_.size(); ++i) {
    turns.push_back(pieces_[i].start);
  }
  return turns;
}

const LinearPiece& Trajectory::PieceAt(double t) const {
  MODB_CHECK(DefinedAt(t)) << "t=" << t << " outside trajectory domain";
  auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), t,
      [](double value, const LinearPiece& piece) {
        return value < piece.start;
      });
  MODB_CHECK(it != pieces_.begin());
  return *std::prev(it);
}

Vec Trajectory::PositionAt(double t) const { return PieceAt(t).PositionAt(t); }

Vec Trajectory::VelocityAt(double t) const { return PieceAt(t).velocity; }

WindowBounds Trajectory::BoundsOver(TimeInterval window) const {
  WindowBounds bounds;
  BoundsOver(window, &bounds);
  return bounds;
}

void Trajectory::BoundsOver(TimeInterval window, WindowBounds* out) const {
  WindowBounds& bounds = *out;
  bounds.scale = 0.0;
  window = window.Intersect(Domain());
  if (window.empty()) {
    bounds.lo.Assign(0, 0.0);
    bounds.hi.Assign(0, 0.0);
    return;
  }
  const size_t n = dim();
  bounds.lo.Assign(n, kInf);
  bounds.hi.Assign(n, -kInf);
  // The piece in effect at window.lo, then every later one starting by hi.
  for (auto it = pieces_.begin() + (&PieceAt(window.lo) - pieces_.data());
       it != pieces_.end() && it->start <= window.hi; ++it) {
    const double lo = std::max(window.lo, it->start);
    const double hi = std::next(it) == pieces_.end()
                          ? window.hi
                          : std::min(window.hi, std::next(it)->start);
    const double t_abs = std::max(std::fabs(lo), std::fabs(hi));
    for (size_t i = 0; i < n; ++i) {
      const double v = it->velocity[i];
      for (const double t : {lo, hi}) {
        const double x = it->origin[i] + v * (t - it->start);
        bounds.lo[i] = std::min(bounds.lo[i], x);
        bounds.hi[i] = std::max(bounds.hi[i], x);
      }
      bounds.scale = std::max(
          bounds.scale,
          std::fabs(it->origin[i] - v * it->start) + std::fabs(v) * t_abs);
    }
  }
}

double WindowBounds::SquaredGap(const WindowBounds& other) const {
  MODB_CHECK_EQ(lo.dim(), other.lo.dim());
  double gap2 = 0.0;
  for (size_t i = 0; i < lo.dim(); ++i) {
    const double gap =
        std::max({0.0, other.lo[i] - hi[i], lo[i] - other.hi[i]});
    gap2 += gap * gap;
  }
  return gap2;
}

PiecewisePoly Trajectory::CoordinateFunction(size_t i) const {
  MODB_CHECK(!empty());
  MODB_CHECK(i < dim());
  PiecewisePoly f;
  for (const LinearPiece& piece : pieces_) {
    // coordinate(t) = origin_i + velocity_i * (t - start)
    //              = (origin_i - velocity_i * start) + velocity_i * t.
    f.AppendPiece(piece.start,
                  Polynomial({piece.origin[i] - piece.velocity[i] * piece.start,
                              piece.velocity[i]}));
  }
  f.SetDomainEnd(end_time_);
  return f;
}

Status Trajectory::Validate(double tol) const {
  if (empty()) return Status::InvalidArgument("empty trajectory");
  const size_t n = dim();
  if (n == 0) return Status::InvalidArgument("zero-dimensional trajectory");
  for (size_t i = 0; i < pieces_.size(); ++i) {
    if (pieces_[i].origin.dim() != n || pieces_[i].velocity.dim() != n) {
      return Status::InvalidArgument("inconsistent piece dimensions");
    }
    if (i > 0) {
      if (pieces_[i].start <= pieces_[i - 1].start) {
        return Status::InvalidArgument("piece starts not increasing");
      }
      // Continuity at the turn (Definition 1 requires a continuous
      // function).
      const Vec left = pieces_[i - 1].PositionAt(pieces_[i].start);
      if (!left.AlmostEquals(pieces_[i].origin, tol)) {
        return Status::InvalidArgument("discontinuous at turn");
      }
    }
  }
  if (end_time_ < pieces_.back().start) {
    return Status::InvalidArgument("domain ends before the last piece");
  }
  return Status::Ok();
}

std::string Trajectory::ToString() const {
  if (empty()) return "<empty trajectory>";
  std::ostringstream out;
  for (size_t i = 0; i < pieces_.size(); ++i) {
    if (i > 0) out << " \\/ ";
    const double end = (i + 1 < pieces_.size()) ? pieces_[i + 1].start
                                                : end_time_;
    out << "x = " << pieces_[i].velocity.ToString() << " (t - "
        << pieces_[i].start << ") + " << pieces_[i].origin.ToString()
        << " /\\ " << pieces_[i].start << " <= t";
    if (end != kInf) out << " <= " << end;
  }
  return out.str();
}

bool operator==(const Trajectory& a, const Trajectory& b) {
  if (a.end_time_ != b.end_time_ || a.pieces_.size() != b.pieces_.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pieces_.size(); ++i) {
    if (a.pieces_[i].start != b.pieces_[i].start ||
        !(a.pieces_[i].origin == b.pieces_[i].origin) ||
        !(a.pieces_[i].velocity == b.pieces_[i].velocity)) {
      return false;
    }
  }
  return true;
}

}  // namespace modb
