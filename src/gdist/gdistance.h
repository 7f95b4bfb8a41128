#ifndef MODB_GDIST_GDISTANCE_H_
#define MODB_GDIST_GDISTANCE_H_

#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "gdist/curve.h"
#include "geom/curve_pool.h"
#include "trajectory/trajectory.h"

namespace modb {

// A generalized distance (Definition 6): a mapping from trajectories to
// continuous functions from time to R. Extended over a MOD it assigns every
// object its curve f_o; FO(f) queries compare those curves at common time
// instants, and the sweep engine maintains their pointwise order.
//
// Implementations must be *deterministic in the trajectory*: the same
// trajectory always yields the same curve. The engine re-invokes Curve()
// after chdir updates (the updated trajectory yields the updated curve;
// both agree up to the update time, as Definition 3 guarantees).
class GDistance {
 public:
  virtual ~GDistance() = default;

  // The curve f(T(o)) for one trajectory. The curve's domain must equal the
  // trajectory's domain intersected with the g-distance's own reference
  // domain (e.g. the query trajectory's).
  virtual GCurve Curve(const Trajectory& trajectory) const = 0;

  // Curve(trajectory).Eval(t), bit for bit (under == only the sign of an
  // exact zero may differ, as for the pooled form below); t must be in the
  // curve's domain. The one-shot snapshot queries and answer publishing
  // read single values through this. The default builds the whole curve:
  // one piece at t is not enough in general (a time-shifted curve reads
  // the piece at t + delta; a weighted sum scales coefficients before
  // summing them). Overrides (`gdist.euclid_value_at`, see
  // docs/KERNELS.md) read only the pieces in effect at t, in O(log pieces),
  // and must reject every input Curve() rejects (e.g. a check on any piece
  // of the history, not only the piece at t).
  virtual double ValueAt(const Trajectory& trajectory, double t) const {
    return Curve(trajectory).Eval(t);
  }

  // Conservative admission test for threshold queries: false only when
  // Curve(trajectory) provably stays above `threshold` plus a rounding
  // slack wherever the trajectory is defined within `window`, so no
  // computed crossing of the threshold can exist there. One-off form of
  // AdmissionScan (below), which a scan over many objects should use.
  bool MayReach(const Trajectory& trajectory, TimeInterval window,
                double threshold) const;

  // The reference side of the admission box test: a box such that, at
  // every t in `window` where Curve(trajectory) is defined and the
  // trajectory's position lies outside the box, the curve is at least the
  // squared distance from that position to the box (the region's box; the
  // query trajectory's box over the window). The default has none, and
  // every object is admitted.
  virtual std::optional<WindowBounds> AdmissionBox(
      TimeInterval /*window*/) const {
    return std::nullopt;
  }

  // Diagnostic name, e.g. "euclid2(gamma)".
  virtual std::string name() const = 0;

  // Packs the curve for `trajectory` over `window` straight into the
  // sweep's SOA segment pool. When this g-distance has no pooled form
  // (numeric curves, pieces of degree > 2) it returns kInvalidCurve and
  // moves the general curve into `*fallback` instead — the expensive
  // construction is never done twice. The pooled segments must evaluate
  // bit-identically to the GCurve that Curve() returns at every t in
  // `window` ∩ the curve's domain. The default packs Curve()'s piecewise
  // polynomial verbatim, whatever the window. Overrides may pack only the
  // pieces of Curve() that are in effect somewhere in the window — whole
  // pieces, with the same starts and coefficient bits, never cut or
  // re-anchored — ending the domain where the last packed piece ends
  // (`gdist.region_pool_append`); or build the same coefficients of the
  // whole curve without intermediate allocations
  // (`gdist.euclid_pool_append`; see docs/KERNELS.md).
  virtual PolySegPool::CurveId CurveIntoPool(PolySegPool* pool,
                                             const Trajectory& trajectory,
                                             TimeInterval /*window*/,
                                             GCurve* fallback) const {
    GCurve curve = Curve(trajectory);
    if (curve.is_polynomial() && PolySegPool::Eligible(curve.poly())) {
      return pool->Add(curve.poly());
    }
    *fallback = std::move(curve);
    return PolySegPool::kInvalidCurve;
  }
};

using GDistancePtr = std::shared_ptr<const GDistance>;

// One admission scan (PastWithin, InsideRegionTimeline): MayReach for many
// trajectories over one window and threshold. The reference box is
// computed once and each object's box is written into reused storage, so
// the per-object test allocates nothing after the first.
class AdmissionScan {
 public:
  AdmissionScan(const GDistance& gdist, TimeInterval window, double threshold)
      : window_(window),
        threshold_(threshold),
        reference_(gdist.AdmissionBox(window)) {}

  bool MayReach(const Trajectory& trajectory) {
    if (!reference_.has_value()) return true;
    trajectory.BoundsOver(window_, &bounds_);
    return BoxesMayReach(bounds_, *reference_, threshold_);
  }

 private:
  // A squared distance between a point of `a` and a point of `b` is at
  // least a.SquaredGap(b). Boxes that touch say nothing (a region curve is
  // negative inside), nor do empty boxes or a NaN gap: all answer true.
  // The slack covers the curve's rounding: its coefficients and their
  // evaluation are accurate to a few ulps of (a.scale + b.scale)², and
  // 1e-9 of that is millions of ulps.
  static bool BoxesMayReach(const WindowBounds& a, const WindowBounds& b,
                            double threshold) {
    if (a.empty() || b.empty()) return true;
    const double gap2 = a.SquaredGap(b);
    const double scale = 1.0 + a.scale + b.scale;
    const double slack = 1e-9 * (scale * scale + std::fabs(threshold));
    return gap2 == 0.0 || !(gap2 > threshold + slack);
  }

  TimeInterval window_;
  double threshold_;
  std::optional<WindowBounds> reference_;
  WindowBounds bounds_;
};

inline bool GDistance::MayReach(const Trajectory& trajectory,
                                TimeInterval window, double threshold) const {
  return AdmissionScan(*this, window, threshold).MayReach(trajectory);
}

}  // namespace modb

#endif  // MODB_GDIST_GDISTANCE_H_
