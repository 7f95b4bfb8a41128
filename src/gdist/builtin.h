#ifndef MODB_GDIST_BUILTIN_H_
#define MODB_GDIST_BUILTIN_H_

#include <memory>
#include <string>
#include <vector>

#include "gdist/gdistance.h"
#include "geom/polynomial.h"
#include "geom/vec.h"

namespace modb {

// Example 8: d_o(t) = (len(x_o - x_γ))², the squared Euclidean distance to
// the query trajectory γ. Piecewise quadratic, hence a polynomial
// g-distance; powers every k-NN / within-range query in the paper.
class SquaredEuclideanGDistance : public GDistance {
 public:
  explicit SquaredEuclideanGDistance(Trajectory query);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override { return "euclid2"; }

  // `gdist.euclid_pool_append` (docs/KERNELS.md): builds the same
  // quadratic coefficients Curve() would produce — merged breakpoints,
  // identical accumulation order per dimension — straight into the pool
  // with no Polynomial/PiecewisePoly temporaries.
  // It packs the whole history, whatever the window.
  PolySegPool::CurveId CurveIntoPool(PolySegPool* pool,
                                     const Trajectory& trajectory,
                                     TimeInterval window,
                                     GCurve* fallback) const override;

  // `gdist.euclid_value_at` (docs/KERNELS.md): the separation quadratic of
  // the two pieces Curve() pairs at t — the later piece at an interior
  // turn, the earlier one at the common domain end — evaluated in place.
  double ValueAt(const Trajectory& trajectory, double t) const override;

  // The query's box over the window: the squared gap between it and the
  // object's box bounds the curve from below.
  std::optional<WindowBounds> AdmissionBox(TimeInterval window) const override;

  const Trajectory& query() const { return query_; }

 private:
  Trajectory query_;
};

// Squared difference along one coordinate axis, e.g. altitude separation
// from the query object. Piecewise quadratic.
class AxisDistanceGDistance : public GDistance {
 public:
  AxisDistanceGDistance(Trajectory query, size_t axis);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override;

 private:
  Trajectory query_;
  size_t axis_;
};

// Example 9 / Example 7 ("fastest arrival") for a *stationary* target: the
// squared time t_Δ² for the object to reach `target` if it turns now and
// keeps its current speed: t_Δ²(t) = |target - x_o(t)|² / s_o², with s_o the
// object's piecewise-constant speed. Piecewise quadratic, hence polynomial.
// Objects must be moving (nonzero speed on every piece).
class InterceptionTimeSquaredGDistance : public GDistance {
 public:
  explicit InterceptionTimeSquaredGDistance(Vec target);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override { return "intercept2"; }

 private:
  Vec target_;
};

// Fastest arrival against a *moving* target (the paper's "police car that
// can reach the target train fastest"): the minimal Δ >= 0 with
// |x_q(t + Δ) - x_o(t)| = s_o · Δ. Not piecewise polynomial in general, so
// this is a numeric g-distance: crossings are bracketed on a grid of
// `sample_step` and bisected (the paper's footnote 1 allows approximated
// intersection times). Requires s_o > |v_q| everywhere (the pursuer is
// strictly faster, so interception always exists) and a finite horizon.
class MovingInterceptionGDistance : public GDistance {
 public:
  MovingInterceptionGDistance(Trajectory query, double horizon,
                              double sample_step);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override { return "intercept_moving"; }

 private:
  Trajectory query_;
  double horizon_;
  double sample_step_;
};

// The raw value of one coordinate: f_o(t) = x_o(t).axis. The simplest
// polynomial g-distance (piecewise linear); scenario reproductions
// (Figures 2 and 3) use it to realize prescribed curve shapes exactly as
// 1-D object motions.
class CoordinateValueGDistance : public GDistance {
 public:
  explicit CoordinateValueGDistance(size_t axis) : axis_(axis) {}

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override;

 private:
  size_t axis_;
};

// f(y, t + delta): the inner g-distance evaluated `delta` into the future
// (or past) — §5's polynomial time terms, specialized to the shift terms
// that dominate practice ("who will be nearest five minutes from now").
// The curve is the inner curve with its argument shifted, so all sweep
// machinery applies unchanged. Requires a polynomial inner g-distance.
class TimeShiftedGDistance : public GDistance {
 public:
  TimeShiftedGDistance(GDistancePtr inner, double delta);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override;

 private:
  GDistancePtr inner_;
  double delta_;
};

// Σ w_i f_i: a weighted sum of polynomial g-distances, e.g. horizontal
// separation plus a strongly weighted altitude separation for conflict
// probing. Weights must be provided for every component.
class WeightedSumGDistance : public GDistance {
 public:
  WeightedSumGDistance(std::vector<GDistancePtr> components,
                       std::vector<double> weights);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override;

 private:
  std::vector<GDistancePtr> components_;
  std::vector<double> weights_;
};

// p ∘ f: applies a polynomial to another (polynomial) g-distance. With a
// monotone p this re-scales distances without changing any ordering; with a
// non-monotone p it expresses band criteria ("closest to 50km away").
class ComposedGDistance : public GDistance {
 public:
  ComposedGDistance(Polynomial outer, GDistancePtr inner);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override;

 private:
  Polynomial outer_;
  GDistancePtr inner_;
};

}  // namespace modb

#endif  // MODB_GDIST_BUILTIN_H_
