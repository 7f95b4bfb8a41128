#ifndef MODB_GDIST_REGION_H_
#define MODB_GDIST_REGION_H_

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
class RegionGDistance : public GDistance {
 public:
  explicit RegionGDistance(ConvexPolygon region);

  GCurve Curve(const Trajectory& trajectory) const override;
  std::string name() const override { return "region_dist2"; }

  // Outside the region the curve is the squared distance to it, at least
  // the squared gap between the object's window box and the region's box;
  // inside it is negative, and those boxes overlap.
  bool MayReach(const Trajectory& trajectory, TimeInterval window,
                double threshold) const override;

  const ConvexPolygon& region() const { return region_; }

 private:
  ConvexPolygon region_;
  WindowBounds region_box_;
};

}  // namespace modb

#endif  // MODB_GDIST_REGION_H_
