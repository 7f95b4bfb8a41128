#include "gdist/region.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/roots.h"

namespace modb {
namespace {

// A feature distance function: the squared distance from the moving point
// to one boundary feature, as an (unclamped) quadratic in t. Edges use
// their supporting line, vertices the point distance; the argmin over all
// features with clamping applied equals the true boundary distance, and
// between any two instants where two feature functions are equal — or a
// clamp boundary is crossed — the argmin feature is constant.
struct MovingPoint {
  Polynomial x;
  Polynomial y;

  Vec At(double t) const { return Vec{x.Eval(t), y.Eval(t)}; }
};

// ((p(t) - a) · n̂)² with n̂ the unit normal of the edge.
Polynomial EdgeLineDistance2(const MovingPoint& p, const Vec& a,
                             const Vec& b) {
  const Vec d = b - a;
  const double len = d.Length();
  const double nx = -d[1] / len;
  const double ny = d[0] / len;
  // dot(t) = (x(t) - a0) nx + (y(t) - a1) ny — linear in t.
  Polynomial dot = (p.x - Polynomial::Constant(a[0])) * nx +
                   (p.y - Polynomial::Constant(a[1])) * ny;
  return dot * dot;
}

// |p(t) - v|².
Polynomial VertexDistance2(const MovingPoint& p, const Vec& v) {
  const Polynomial dx = p.x - Polynomial::Constant(v[0]);
  const Polynomial dy = p.y - Polynomial::Constant(v[1]);
  return dx * dx + dy * dy;
}

}  // namespace

RegionGDistance::RegionGDistance(ConvexPolygon region)
    : region_(std::move(region)) {
  region_box_.lo = region_.vertices().front();
  region_box_.hi = region_.vertices().front();
  for (const Vec& v : region_.vertices()) {
    for (size_t i = 0; i < 2; ++i) {
      region_box_.lo[i] = std::min(region_box_.lo[i], v[i]);
      region_box_.hi[i] = std::max(region_box_.hi[i], v[i]);
      region_box_.scale = std::max(region_box_.scale, std::fabs(v[i]));
    }
  }
}

bool RegionGDistance::MayReach(const Trajectory& trajectory,
                               TimeInterval window, double threshold) const {
  return BoxesMayReach(trajectory.BoundsOver(window), region_box_, threshold);
}

GCurve RegionGDistance::Curve(const Trajectory& trajectory) const {
  MODB_CHECK_EQ(trajectory.dim(), 2u);
  const auto& vertices = region_.vertices();
  const size_t num_edges = vertices.size();

  PiecewisePoly result;
  const auto& pieces = trajectory.pieces();
  for (size_t piece_index = 0; piece_index < pieces.size(); ++piece_index) {
    const LinearPiece& piece = pieces[piece_index];
    const double piece_lo = piece.start;
    const double piece_hi = (piece_index + 1 < pieces.size())
                                ? pieces[piece_index + 1].start
                                : trajectory.end_time();
    const MovingPoint p{
        Polynomial({piece.origin[0] - piece.velocity[0] * piece.start,
                    piece.velocity[0]}),
        Polynomial({piece.origin[1] - piece.velocity[1] * piece.start,
                    piece.velocity[1]})};

    // All feature quadratics.
    std::vector<Polynomial> features;
    for (size_t i = 0; i < num_edges; ++i) {
      features.push_back(
          EdgeLineDistance2(p, vertices[i], vertices[(i + 1) % num_edges]));
    }
    for (const Vec& v : vertices) {
      features.push_back(VertexDistance2(p, v));
    }

    // Candidate breakpoints: pairwise feature equalities, slab boundaries,
    // and boundary (edge line) crossings.
    std::vector<double> candidates;
    auto add_roots = [&](const Polynomial& poly) {
      if (poly.IsZero() || poly.degree() < 1) return;
      for (double r : RealRootsInInterval(poly, piece_lo, piece_hi)) {
        candidates.push_back(r);
      }
    };
    for (size_t i = 0; i < features.size(); ++i) {
      for (size_t j = i + 1; j < features.size(); ++j) {
        add_roots(features[i] - features[j]);
      }
    }
    for (size_t i = 0; i < num_edges; ++i) {
      const Vec& a = vertices[i];
      const Vec& b = vertices[(i + 1) % num_edges];
      const Vec d = b - a;
      // Slab boundaries: (p - a)·d = 0 and (p - b)·d = 0.
      const Polynomial along_a =
          (p.x - Polynomial::Constant(a[0])) * d[0] +
          (p.y - Polynomial::Constant(a[1])) * d[1];
      const Polynomial along_b =
          (p.x - Polynomial::Constant(b[0])) * d[0] +
          (p.y - Polynomial::Constant(b[1])) * d[1];
      add_roots(along_a);
      add_roots(along_b);
      // Sign flips: crossing the supporting line.
      const Polynomial across =
          (p.x - Polynomial::Constant(a[0])) * (-d[1]) +
          (p.y - Polynomial::Constant(a[1])) * d[0];
      add_roots(across);
    }
    std::sort(candidates.begin(), candidates.end());

    // Sub-pieces between candidates; classify each at its midpoint.
    std::vector<double> starts = {piece_lo};
    for (double c : candidates) {
      if (c > starts.back() + 1e-12 && c < piece_hi) starts.push_back(c);
    }
    for (size_t s = 0; s < starts.size(); ++s) {
      const double lo = starts[s];
      const double hi = (s + 1 < starts.size()) ? starts[s + 1] : piece_hi;
      double sample;
      if (std::isfinite(hi)) {
        sample = 0.5 * (lo + hi);
      } else {
        // Beyond the last candidate everything is stable.
        sample = lo + 1.0;
      }
      const Vec position = p.At(sample);
      // Closest feature by direct geometry.
      size_t best_feature = 0;
      double best = kInf;
      for (size_t i = 0; i < num_edges; ++i) {
        const Vec& a = vertices[i];
        const Vec& b = vertices[(i + 1) % num_edges];
        const Vec ab = b - a;
        const Vec ap = position - a;
        const double along = ap.Dot(ab);
        const double len2 = ab.SquaredLength();
        if (along <= 0.0) {
          const double d2 = ap.SquaredLength();
          if (d2 < best) {
            best = d2;
            best_feature = num_edges + i;  // Vertex a == vertex i.
          }
        } else if (along >= len2) {
          const double d2 = (position - b).SquaredLength();
          if (d2 < best) {
            best = d2;
            best_feature = num_edges + (i + 1) % num_edges;
          }
        } else {
          const double perp = ap[0] * ab[1] - ap[1] * ab[0];
          const double d2 = perp * perp / len2;
          if (d2 < best) {
            best = d2;
            best_feature = i;  // Edge i.
          }
        }
      }
      Polynomial quadratic = features[best_feature];
      if (region_.Contains(position)) quadratic *= -1.0;
      if (!result.empty() && result.pieces().back().start == lo) {
        // Identical start (numerical dedup): keep the earlier piece.
        continue;
      }
      result.AppendPiece(lo, std::move(quadratic));
    }
  }
  result.SetDomainEnd(trajectory.end_time());
  MODB_DCHECK(result.IsContinuous(1e-5))
      << "region distance curve discontinuous — feature decomposition bug";
  return GCurve::FromPoly(std::move(result));
}

}  // namespace modb
