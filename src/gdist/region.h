#ifndef MODB_GDIST_REGION_H_
#define MODB_GDIST_REGION_H_

#include <vector>

#include "gdist/gdistance.h"
#include "geom/polygon.h"

namespace modb {

// The signed squared distance from a moving point to a fixed convex region
// — the g-distance behind the paper's spatial-region queries (§2's "roads,
// city regions" and Example 3's "entering Santa Barbara County"):
//
//   f_o(t) < 0   o is strictly inside the region,
//   f_o(t) = 0   o is on the boundary,
//   f_o(t) > 0   o is outside (value = squared distance to the boundary).
//
// For a linear trajectory piece the closest boundary feature (an edge or a
// vertex) changes at finitely many computable instants, and between them
// the distance is a quadratic in t — so this is a *polynomial* g-distance
// and every engine/kernel applies: "inside the county" is a threshold-0
// range query, "within 5 km of the county" is a threshold-25 one, and
// k-NN under it ranks objects by proximity to the region.
//
// Curve(), CurveIntoPool() and ValueAt() share one allocation-free kernel
// (`gdist.region_pool_append`, docs/KERNELS.md) that decomposes only the
// trajectory pieces in effect in the requested window.
class RegionGDistance : public GDistance {
 public:
  explicit RegionGDistance(ConvexPolygon region);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override { return "region_dist2"; }

  // Packs only the pieces of Curve() in effect somewhere in `window` ∩
  // the trajectory's domain (the whole curve when that is empty).
  PolySegPool::CurveId CurveIntoPool(PolySegPool* pool,
                                     const Trajectory& trajectory,
                                     TimeInterval window,
                                     GCurve* fallback) const override;

  // Evaluates the one piece of the curve in effect at t, built alone (the
  // window [t, t]).
  double ValueAt(const Trajectory& trajectory, double t) const override;

  // Outside the region the curve is the squared distance to it, at least
  // the squared distance to the region's box; inside it is negative, and
  // the object is in the box.
  std::optional<WindowBounds> AdmissionBox(
      TimeInterval /*window*/) const override {
    return region_box_;
  }

  const ConvexPolygon& region() const { return region_; }

 private:
  // Edge i, from vertex i to vertex i + 1, with the quantities the kernel
  // reads for every piece, computed once by the Vec operations that define
  // them (so each equals its per-piece recomputation bit for bit).
  struct Edge {
    double ax, ay, bx, by;  // Endpoints.
    double dx, dy;          // b - a.
    double len2;            // |b - a|².
    double nx, ny;          // Unit normal (-dy, dx) / |b - a|.
  };
  // The kernel's output planes: piece starts and trimmed coefficients,
  // absent ones +0.0 (PolySegPool's layout).
  struct Pieces;

  // Writes the pieces of Curve(trajectory) in effect somewhere in
  // `window` ∩ the trajectory's domain — every piece when that is empty —
  // into `*out`, and returns where the last of them ends (the curve's
  // domain end, or the start of the next piece).
  double BuildPieces(const Trajectory& trajectory, TimeInterval window,
                     Pieces* out) const;

  ConvexPolygon region_;
  WindowBounds region_box_;
  std::vector<Edge> edges_;
};

}  // namespace modb

#endif  // MODB_GDIST_REGION_H_
