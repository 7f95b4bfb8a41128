#ifndef MODB_TRAJECTORY_TRAJECTORY_H_
#define MODB_TRAJECTORY_TRAJECTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "geom/interval.h"
#include "geom/piecewise_poly.h"
#include "geom/vec.h"

namespace modb {

// Object identifiers (Definition 2's set O of OIDs).
using ObjectId = int64_t;
inline constexpr ObjectId kInvalidObjectId = -1;

// One linear motion segment: position(t) = origin + velocity * (t - start)
// for t >= start (until the next piece starts or the trajectory ends).
// Stored in anchored form rather than the paper's global `x = At + B`
// because chdir naturally produces `x = A(t - τ) + B` (Definition 3); the
// two are interconvertible via GlobalIntercept().
struct LinearPiece {
  double start = 0.0;
  Vec origin;    // Position at `start`.
  Vec velocity;  // The paper's A.

  // Position at time t under this piece's motion law.
  Vec PositionAt(double t) const { return origin + velocity * (t - start); }

  // The paper's B in `x = At + B`: origin - velocity * start.
  Vec GlobalIntercept() const { return origin - velocity * start; }
};

// The axis-aligned box around the positions a trajectory takes during a
// time window, plus `scale`: the largest |B_i| + |A_i t| over the visited
// pieces, axes and window ends (x = A t + B per piece). Curves built from
// the trajectory are evaluated in that global form, so their rounding
// error grows with `scale`, not with the box.
struct WindowBounds {
  Vec lo;  // Dimension 0 when the trajectory is undefined in the window.
  Vec hi;
  double scale = 0.0;

  bool empty() const { return lo.dim() == 0; }
  // Squared Euclidean distance between the two boxes; 0 when they touch.
  double SquaredGap(const WindowBounds& other) const;
};

// A trajectory (Definition 1): a continuous piecewise-linear function from
// time to R^n, possibly right-unbounded, possibly terminated. Each
// coordinate is a piecewise-linear polynomial of t; turns are the piece
// boundaries.
class Trajectory {
 public:
  Trajectory() = default;

  // A single-piece trajectory starting at `start` at position `origin`
  // moving with `velocity`, unbounded to the right. This is the result of
  // the paper's new(o, τ, A, B) with B re-anchored to the creation time.
  static Trajectory Linear(double start, Vec origin, Vec velocity);

  // A stationary point (constant-vector motion), the paper's allowance for
  // spatial points in the model.
  static Trajectory Stationary(double start, Vec position);

  // From the paper's global form x = A t + B valid from `start`.
  static Trajectory FromGlobalForm(double start, const Vec& a, const Vec& b);

  // Appends a turn at `time`: velocity changes to `velocity`, position stays
  // continuous (the chdir semantics of Definition 3). `time` must be within
  // the current (unbounded) domain and after the last turn.
  Status AddTurn(double time, Vec velocity);
  // AddTurn's preconditions for a velocity of dimension `dim`, without
  // changing anything: OK exactly when AddTurn would succeed.
  Status CheckTurn(double time, size_t dim) const;

  // Ends the trajectory at `time` (the terminate semantics): the function is
  // undefined after `time`. `time` must be after the start.
  Status Terminate(double time);
  // Terminate's preconditions, without changing anything.
  Status CheckTerminate(double time) const;

  bool empty() const { return pieces_.empty(); }
  size_t dim() const { return pieces_.empty() ? 0 : pieces_[0].origin.dim(); }
  const std::vector<LinearPiece>& pieces() const { return pieces_; }
  double start_time() const;
  double end_time() const { return end_time_; }  // kInf if unbounded.
  bool terminated() const { return end_time_ != kInf; }
  TimeInterval Domain() const {
    return empty() ? TimeInterval::Empty()
                   : TimeInterval(start_time(), end_time_);
  }
  bool DefinedAt(double t) const { return Domain().Contains(t); }

  // Times at which the derivative is discontinuous (the paper's turns).
  std::vector<double> Turns() const;

  // The piece in effect at time t (at a turn, the later piece).
  const LinearPiece& PieceAt(double t) const;

  // Position at time t; t must be in the domain.
  Vec PositionAt(double t) const;

  // Velocity at time t (the paper's vel function); at a turn, the velocity
  // of the later piece.
  Vec VelocityAt(double t) const;

  // The bounds over `window` ∩ Domain(). Binary-searches the first piece
  // overlapping the window and visits only overlapping pieces; a linear
  // piece is extreme at the ends of its clipped time range. The second
  // form writes into `*bounds`, reusing its storage, so a scan over many
  // trajectories allocates nothing after the first.
  WindowBounds BoundsOver(TimeInterval window) const;
  void BoundsOver(TimeInterval window, WindowBounds* bounds) const;

  // Coordinate i as a piecewise (linear) polynomial of t over the domain.
  PiecewisePoly CoordinateFunction(size_t i) const;

  // Verifies the Definition 1 invariants: nonempty, consistent dimensions,
  // strictly increasing piece starts, continuity at every turn.
  Status Validate(double tol = 1e-9) const;

  std::string ToString() const;

  friend bool operator==(const Trajectory& a, const Trajectory& b);

 private:
  std::vector<LinearPiece> pieces_;  // Sorted by start.
  double end_time_ = kInf;
};

}  // namespace modb

#endif  // MODB_TRAJECTORY_TRAJECTORY_H_
