#include "gdist/builtin.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace modb {
namespace {

// Sum over coordinates of squared differences between the two trajectories'
// coordinate functions: the squared Euclidean separation as a piecewise
// (quadratic) polynomial on the common domain.
PiecewisePoly SquaredSeparation(const Trajectory& a, const Trajectory& b) {
  MODB_CHECK_EQ(a.dim(), b.dim());
  PiecewisePoly total;
  for (size_t i = 0; i < a.dim(); ++i) {
    PiecewisePoly diff = PiecewisePoly::Difference(a.CoordinateFunction(i),
                                                   b.CoordinateFunction(i));
    MODB_CHECK(!diff.empty()) << "trajectories have disjoint domains";
    PiecewisePoly squared = PiecewisePoly::Product(diff, diff);
    total = (i == 0) ? std::move(squared)
                     : PiecewisePoly::Sum(total, squared);
  }
  return total;
}

// The quadratic c0 + c1 t + c2 t² of |x_a(t) - x_b(t)|² on a merged
// segment where pieces `a` and `b` are in effect. The per-dimension linear
// coefficients and the accumulation order replicate CoordinateFunction /
// Difference / Product / Sum, so every nonzero coefficient matches
// SquaredSeparation's bit for bit (exactly-zero coefficients may differ in
// zero sign only, which no comparison or root formula observes).
struct Quadratic {
  double c0 = 0.0, c1 = 0.0, c2 = 0.0;
};
Quadratic SeparationQuadratic(const LinearPiece& a, const LinearPiece& b,
                              size_t dim) {
  Quadratic q;
  for (size_t i = 0; i < dim; ++i) {
    const double pa0 = a.origin[i] - a.velocity[i] * a.start;
    const double pa1 = a.velocity[i];
    const double pb0 = b.origin[i] - b.velocity[i] * b.start;
    const double pb1 = b.velocity[i];
    const double e0 = pa0 - pb0;
    const double e1 = pa1 - pb1;
    q.c0 += e0 * e0;
    q.c1 += e0 * e1 + e1 * e0;  // Convolution order of Polynomial::operator*.
    q.c2 += e1 * e1;
  }
  return q;
}

// The piece MergePointwise pairs with the merged segment covering t: the
// piece in effect at t (the later one at an interior turn). The end of a
// common domain longer than an instant starts no merged segment, so there
// a piece starting exactly at t is passed over for the one before it
// (which exists: the domain starts before t).
const LinearPiece& MergedPieceAt(const std::vector<LinearPiece>& pieces,
                                 double t, bool at_domain_end) {
  auto it = std::upper_bound(
      pieces.begin(), pieces.end(), t,
      [](double value, const LinearPiece& piece) {
        return value < piece.start;
      });
  MODB_CHECK(it != pieces.begin());
  --it;
  if (at_domain_end && it->start == t) --it;
  return *it;
}

}  // namespace

SquaredEuclideanGDistance::SquaredEuclideanGDistance(Trajectory query)
    : query_(std::move(query)) {
  MODB_CHECK(!query_.empty());
}

GCurve SquaredEuclideanGDistance::Curve(const Trajectory& trajectory) const {
  return GCurve::FromPoly(SquaredSeparation(trajectory, query_));
}

std::optional<WindowBounds> SquaredEuclideanGDistance::AdmissionBox(
    TimeInterval window) const {
  return query_.BoundsOver(window);
}

PolySegPool::CurveId SquaredEuclideanGDistance::CurveIntoPool(
    PolySegPool* pool, const Trajectory& trajectory, TimeInterval /*window*/,
    GCurve* /*fallback*/) const {
  MODB_CHECK_EQ(trajectory.dim(), query_.dim());
  const std::vector<LinearPiece>& ap = trajectory.pieces();
  const std::vector<LinearPiece>& bp = query_.pieces();
  // Common domain and merged breakpoints, exactly as MergePointwise: the
  // domain start plus the strictly interior piece starts of both sides,
  // sorted with exact-equality dedup.
  const double dlo = std::max(ap.front().start, bp.front().start);
  const double dhi = std::min(trajectory.end_time(), query_.end_time());
  MODB_CHECK(dlo <= dhi) << "trajectories have disjoint domains";
  thread_local std::vector<double> starts, q0, q1, q2;
  starts.clear();
  starts.push_back(dlo);
  for (const LinearPiece& piece : ap) {
    if (piece.start > dlo && piece.start < dhi) starts.push_back(piece.start);
  }
  for (const LinearPiece& piece : bp) {
    if (piece.start > dlo && piece.start < dhi) starts.push_back(piece.start);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  // Per merged piece, the separation quadratic of the pieces in effect.
  q0.resize(starts.size());
  q1.resize(starts.size());
  q2.resize(starts.size());
  size_t ia = 0, ib = 0;
  for (size_t s = 0; s < starts.size(); ++s) {
    const double start = starts[s];
    while (ia + 1 < ap.size() && ap[ia + 1].start <= start) ++ia;
    while (ib + 1 < bp.size() && bp[ib + 1].start <= start) ++ib;
    const Quadratic q = SeparationQuadratic(ap[ia], bp[ib], trajectory.dim());
    q0[s] = q.c0;
    q1[s] = q.c1;
    q2[s] = q.c2;
  }
  return pool->AddRaw(starts.data(), q0.data(), q1.data(), q2.data(),
                      static_cast<uint32_t>(starts.size()), dhi);
}

double SquaredEuclideanGDistance::ValueAt(const Trajectory& trajectory,
                                          double t) const {
  MODB_CHECK_EQ(trajectory.dim(), query_.dim());
  const double dlo = std::max(trajectory.start_time(), query_.start_time());
  const double dhi = std::min(trajectory.end_time(), query_.end_time());
  MODB_CHECK(dlo <= t && t <= dhi)
      << "t=" << t << " outside the common domain [" << dlo << ", " << dhi
      << "]";
  const bool at_domain_end = t == dhi && dlo < dhi;
  const Quadratic q = SeparationQuadratic(
      MergedPieceAt(trajectory.pieces(), t, at_domain_end),
      MergedPieceAt(query_.pieces(), t, at_domain_end), trajectory.dim());
  return EvalTrimmedQuadratic(q.c0, q.c1, q.c2, t);
}

AxisDistanceGDistance::AxisDistanceGDistance(Trajectory query, size_t axis)
    : query_(std::move(query)), axis_(axis) {
  MODB_CHECK(!query_.empty());
  MODB_CHECK(axis_ < query_.dim());
}

GCurve AxisDistanceGDistance::Curve(const Trajectory& trajectory) const {
  MODB_CHECK_EQ(trajectory.dim(), query_.dim());
  PiecewisePoly diff =
      PiecewisePoly::Difference(trajectory.CoordinateFunction(axis_),
                                query_.CoordinateFunction(axis_));
  MODB_CHECK(!diff.empty()) << "trajectories have disjoint domains";
  return GCurve::FromPoly(PiecewisePoly::Product(diff, diff));
}

std::string AxisDistanceGDistance::name() const {
  std::ostringstream out;
  out << "axis" << axis_ << "_dist2";
  return out.str();
}

InterceptionTimeSquaredGDistance::InterceptionTimeSquaredGDistance(Vec target)
    : target_(std::move(target)) {
  MODB_CHECK_GT(target_.dim(), 0u);
}

GCurve InterceptionTimeSquaredGDistance::Curve(
    const Trajectory& trajectory) const {
  MODB_CHECK_EQ(trajectory.dim(), target_.dim());
  PiecewisePoly result;
  for (const LinearPiece& piece : trajectory.pieces()) {
    const double speed2 = piece.velocity.SquaredLength();
    MODB_CHECK_GT(speed2, 0.0)
        << "InterceptionTimeSquared requires a moving object";
    // |target - x(t)|² / s², with x(t) = origin + velocity (t - start):
    // per coordinate the difference is linear in t.
    Polynomial sum;
    for (size_t i = 0; i < target_.dim(); ++i) {
      // target_i - origin_i - velocity_i (t - start).
      const Polynomial linear(
          {target_[i] - piece.origin[i] + piece.velocity[i] * piece.start,
           -piece.velocity[i]});
      sum += linear * linear;
    }
    result.AppendPiece(piece.start, sum * (1.0 / speed2));
  }
  result.SetDomainEnd(trajectory.end_time());
  return GCurve::FromPoly(result);
}

MovingInterceptionGDistance::MovingInterceptionGDistance(Trajectory query,
                                                         double horizon,
                                                         double sample_step)
    : query_(std::move(query)),
      horizon_(horizon),
      sample_step_(sample_step) {
  MODB_CHECK(!query_.empty());
  MODB_CHECK(std::isfinite(horizon_));
  MODB_CHECK_GT(sample_step_, 0.0);
}

GCurve MovingInterceptionGDistance::Curve(const Trajectory& trajectory) const {
  MODB_CHECK_EQ(trajectory.dim(), query_.dim());
  const TimeInterval domain = trajectory.Domain()
                                  .Intersect(query_.Domain())
                                  .Intersect(TimeInterval(-kInf, horizon_));
  MODB_CHECK(!domain.empty());
  // Capture by value: the curve must outlive this g-distance instance.
  Trajectory chaser = trajectory;
  Trajectory target = query_;
  auto fn = [chaser, target](double t) -> double {
    const Vec w = target.PositionAt(t) - chaser.PositionAt(t);
    const Vec vq = target.VelocityAt(t);
    const double so2 = chaser.VelocityAt(t).SquaredLength();
    MODB_CHECK_GT(so2, vq.SquaredLength())
        << "pursuer must be strictly faster than the target";
    // Smallest Δ >= 0 with |w + vq Δ|² = so² Δ²:
    //   (|vq|² - so²) Δ² + 2 (w·vq) Δ + |w|² = 0.
    const double a = vq.SquaredLength() - so2;  // < 0.
    const double b = 2.0 * w.Dot(vq);
    const double c = w.SquaredLength();
    if (c == 0.0) return 0.0;  // Already caught.
    const double disc = b * b - 4.0 * a * c;
    MODB_CHECK_GE(disc, 0.0);
    const double sq = std::sqrt(disc);
    // a < 0 and f(0) = c > 0: exactly one positive root.
    const double r1 = (-b + sq) / (2.0 * a);
    const double r2 = (-b - sq) / (2.0 * a);
    return std::max(r1, r2) >= 0.0 ? std::max(r1, r2) : std::min(r1, r2);
  };
  return GCurve::FromFunction(std::move(fn), domain, sample_step_);
}

GCurve CoordinateValueGDistance::Curve(const Trajectory& trajectory) const {
  MODB_CHECK(axis_ < trajectory.dim());
  return GCurve::FromPoly(trajectory.CoordinateFunction(axis_));
}

std::string CoordinateValueGDistance::name() const {
  std::ostringstream out;
  out << "coord" << axis_;
  return out.str();
}

TimeShiftedGDistance::TimeShiftedGDistance(GDistancePtr inner, double delta)
    : inner_(std::move(inner)), delta_(delta) {
  MODB_CHECK(inner_ != nullptr);
}

GCurve TimeShiftedGDistance::Curve(const Trajectory& trajectory) const {
  const GCurve base = inner_->Curve(trajectory);
  MODB_CHECK(base.is_polynomial())
      << "TimeShiftedGDistance requires a polynomial inner g-distance";
  // g(t) = f(t + delta): shift every piece boundary left by delta and
  // compose each piece with t + delta.
  PiecewisePoly shifted;
  const PiecewisePoly& poly = base.poly();
  for (const PiecewisePoly::Piece& piece : poly.pieces()) {
    shifted.AppendPiece(piece.start - delta_,
                        piece.poly.ShiftArgument(delta_));
  }
  shifted.SetDomainEnd(poly.DomainEnd() == kInf ? kInf
                                                : poly.DomainEnd() - delta_);
  return GCurve::FromPoly(std::move(shifted));
}

std::string TimeShiftedGDistance::name() const {
  std::ostringstream out;
  out << inner_->name() << "(t" << (delta_ >= 0.0 ? "+" : "") << delta_
      << ")";
  return out.str();
}

WeightedSumGDistance::WeightedSumGDistance(
    std::vector<GDistancePtr> components, std::vector<double> weights)
    : components_(std::move(components)), weights_(std::move(weights)) {
  MODB_CHECK(!components_.empty());
  MODB_CHECK_EQ(components_.size(), weights_.size());
  for (const GDistancePtr& component : components_) {
    MODB_CHECK(component != nullptr);
  }
}

GCurve WeightedSumGDistance::Curve(const Trajectory& trajectory) const {
  PiecewisePoly total;
  for (size_t i = 0; i < components_.size(); ++i) {
    const GCurve base = components_[i]->Curve(trajectory);
    MODB_CHECK(base.is_polynomial())
        << "WeightedSumGDistance requires polynomial components";
    PiecewisePoly scaled;
    for (const PiecewisePoly::Piece& piece : base.poly().pieces()) {
      scaled.AppendPiece(piece.start, piece.poly * weights_[i]);
    }
    scaled.SetDomainEnd(base.poly().DomainEnd());
    total = (i == 0) ? std::move(scaled)
                     : PiecewisePoly::Sum(total, scaled);
  }
  return GCurve::FromPoly(std::move(total));
}

std::string WeightedSumGDistance::name() const {
  std::ostringstream out;
  out << "sum(";
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out << " + ";
    out << weights_[i] << "*" << components_[i]->name();
  }
  out << ")";
  return out.str();
}

ComposedGDistance::ComposedGDistance(Polynomial outer, GDistancePtr inner)
    : outer_(std::move(outer)), inner_(std::move(inner)) {
  MODB_CHECK(inner_ != nullptr);
}

GCurve ComposedGDistance::Curve(const Trajectory& trajectory) const {
  const GCurve base = inner_->Curve(trajectory);
  MODB_CHECK(base.is_polynomial())
      << "ComposedGDistance requires a polynomial inner g-distance";
  PiecewisePoly composed;
  const PiecewisePoly& poly = base.poly();
  for (const PiecewisePoly::Piece& piece : poly.pieces()) {
    composed.AppendPiece(piece.start, outer_.Compose(piece.poly));
  }
  composed.SetDomainEnd(poly.DomainEnd());
  return GCurve::FromPoly(composed);
}

std::string ComposedGDistance::name() const {
  std::ostringstream out;
  out << "(" << outer_.ToString() << ") o " << inner_->name();
  return out.str();
}

}  // namespace modb
