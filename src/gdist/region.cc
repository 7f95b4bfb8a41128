#include "gdist/region.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/roots.h"

namespace modb {
namespace {

// A Polynomial of degree <= 2 in fixed storage, with Polynomial's exact
// operation order: `size` stored coefficients, trimmed after every
// operation, grown with +0.0, and read as +0.0 past `size`
// (Polynomial::coeff). So every coefficient it yields equals the one the
// Polynomial expression would, bit for bit.
struct Quad {
  double c[3] = {0.0, 0.0, 0.0};
  int size = 0;

  double coeff(int i) const { return i < size ? c[i] : 0.0; }
  void Trim() {
    while (size > 0 && c[size - 1] == 0.0) --size;
  }
  // Polynomial::Eval's Horner loop.
  double Eval(double t) const {
    double result = 0.0;
    for (int i = size; i-- > 0;) result = result * t + c[i];
    return result;
  }
};

// Polynomial({c0}) and Polynomial({c0, c1}).
Quad Constant(double c0) {
  Quad q;
  q.c[0] = c0;
  q.size = 1;
  q.Trim();
  return q;
}
Quad Linear(double c0, double c1) {
  Quad q;
  q.c[0] = c0;
  q.c[1] = c1;
  q.size = 2;
  q.Trim();
  return q;
}

// Polynomial::operator+= and operator-=.
Quad Plus(Quad a, const Quad& b) {
  for (int i = a.size; i < b.size; ++i) a.c[i] = 0.0;
  a.size = std::max(a.size, b.size);
  for (int i = 0; i < b.size; ++i) a.c[i] += b.c[i];
  a.Trim();
  return a;
}
Quad Minus(Quad a, const Quad& b) {
  for (int i = a.size; i < b.size; ++i) a.c[i] = 0.0;
  a.size = std::max(a.size, b.size);
  for (int i = 0; i < b.size; ++i) a.c[i] -= b.c[i];
  a.Trim();
  return a;
}

// Polynomial::operator*=(double).
Quad Scaled(Quad a, double s) {
  if (s == 0.0) {
    a.size = 0;
    return a;
  }
  for (int i = 0; i < a.size; ++i) a.c[i] *= s;
  a.Trim();
  return a;
}

// Polynomial::operator*=(const Polynomial&): the convolution accumulated
// from +0.0 in (i, j) order. Every product here is of two linear factors.
Quad Times(const Quad& a, const Quad& b) {
  Quad p;
  if (a.size == 0 || b.size == 0) return p;
  p.size = a.size + b.size - 1;
  MODB_DCHECK(p.size <= 3);
  for (int i = 0; i < a.size; ++i) {
    for (int j = 0; j < b.size; ++j) p.c[i + j] += a.c[i] * b.c[j];
  }
  p.Trim();
  return p;
}

// The reused per-thread buffers of one build.
struct Scratch {
  // Feature distance functions: the squared distance from the moving
  // point to one boundary feature, as an (unclamped) quadratic in t. Edges
  // (0..n-1) use their supporting line, vertices (n..2n-1) the point
  // distance; the argmin over all features with clamping applied equals
  // the true boundary distance, and between any two instants where two
  // feature functions are equal — or a clamp boundary is crossed — the
  // argmin feature is constant.
  std::vector<Quad> features;
  // p(t) - v per vertex v, one quadratic per coordinate.
  std::vector<Quad> rel_x, rel_y;
  std::vector<double> candidates;
  std::vector<double> starts;
};

}  // namespace

struct RegionGDistance::Pieces {
  std::vector<double> starts, c0, c1, c2;

  void Clear() {
    starts.clear();
    c0.clear();
    c1.clear();
    c2.clear();
  }
  void Append(double start, const Quad& q) {
    starts.push_back(start);
    c0.push_back(q.coeff(0));
    c1.push_back(q.coeff(1));
    c2.push_back(q.coeff(2));
  }
};

RegionGDistance::RegionGDistance(ConvexPolygon region)
    : region_(std::move(region)) {
  const auto& vertices = region_.vertices();
  region_box_.lo = vertices.front();
  region_box_.hi = vertices.front();
  for (const Vec& v : vertices) {
    for (size_t i = 0; i < 2; ++i) {
      region_box_.lo[i] = std::min(region_box_.lo[i], v[i]);
      region_box_.hi[i] = std::max(region_box_.hi[i], v[i]);
      region_box_.scale = std::max(region_box_.scale, std::fabs(v[i]));
    }
  }
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Vec& a = vertices[i];
    const Vec& b = vertices[(i + 1) % vertices.size()];
    const Vec d = b - a;
    const double len = d.Length();
    edges_.push_back(Edge{a[0], a[1], b[0], b[1], d[0], d[1],
                          d.SquaredLength(), -d[1] / len, d[0] / len});
  }
}

double RegionGDistance::BuildPieces(const Trajectory& trajectory,
                                    TimeInterval window, Pieces* out) const {
  MODB_CHECK_EQ(trajectory.dim(), 2u);
  const size_t num_edges = edges_.size();
  const std::vector<LinearPiece>& pieces = trajectory.pieces();
  thread_local Scratch scratch;
  out->Clear();

  // Select the pieces in effect somewhere in [wlo, whi]: those starting by
  // whi and ending after wlo, plus the curve's last piece (in effect at
  // its domain end) when it starts by whi. An empty window selects all.
  window = window.Intersect(trajectory.Domain());
  const bool all = window.empty();
  const double wlo = all ? -kInf : window.lo;
  const double whi = all ? kInf : window.hi;
  // The first trajectory piece with a selected sub-piece: the one in
  // effect at wlo. Every earlier one ends by wlo.
  const size_t first =
      all ? 0 : static_cast<size_t>(&trajectory.PieceAt(wlo) - pieces.data());
  double domain_end = trajectory.end_time();

  for (size_t piece_index = first;
       piece_index < pieces.size() && pieces[piece_index].start <= whi;
       ++piece_index) {
    const LinearPiece& piece = pieces[piece_index];
    const double piece_lo = piece.start;
    const bool last_piece = piece_index + 1 == pieces.size();
    const double piece_hi =
        last_piece ? trajectory.end_time() : pieces[piece_index + 1].start;
    const Quad px = Linear(piece.origin[0] - piece.velocity[0] * piece.start,
                           piece.velocity[0]);
    const Quad py = Linear(piece.origin[1] - piece.velocity[1] * piece.start,
                           piece.velocity[1]);

    std::vector<Quad>& rel_x = scratch.rel_x;
    std::vector<Quad>& rel_y = scratch.rel_y;
    rel_x.clear();
    rel_y.clear();
    for (const Edge& e : edges_) {
      rel_x.push_back(Minus(px, Constant(e.ax)));
      rel_y.push_back(Minus(py, Constant(e.ay)));
    }

    // All feature quadratics: ((p(t) - a) · n̂)² per edge, |p(t) - v|² per
    // vertex (vertex i is edge i's a).
    std::vector<Quad>& features = scratch.features;
    features.clear();
    for (size_t i = 0; i < num_edges; ++i) {
      const Quad dot = Plus(Scaled(rel_x[i], edges_[i].nx),
                            Scaled(rel_y[i], edges_[i].ny));
      features.push_back(Times(dot, dot));
    }
    for (size_t i = 0; i < num_edges; ++i) {
      features.push_back(
          Plus(Times(rel_x[i], rel_x[i]), Times(rel_y[i], rel_y[i])));
    }

    // Candidate breakpoints: pairwise feature equalities, slab boundaries,
    // and boundary (edge line) crossings.
    std::vector<double>& candidates = scratch.candidates;
    candidates.clear();
    auto add_roots = [&](const Quad& q) {
      if (q.size < 2) return;  // Zero or constant: no crossing.
      double roots[2];
      const int count = ClosedFormRootsInInterval(
          q.coeff(0), q.coeff(1), q.coeff(2), piece_lo, piece_hi, roots);
      candidates.insert(candidates.end(), roots, roots + count);
    };
    for (size_t i = 0; i < features.size(); ++i) {
      for (size_t j = i + 1; j < features.size(); ++j) {
        add_roots(Minus(features[i], features[j]));
      }
    }
    for (size_t i = 0; i < num_edges; ++i) {
      const Edge& e = edges_[i];
      const size_t b = (i + 1) % num_edges;  // Edge i's b is vertex i + 1.
      // Slab boundaries: (p - a)·d = 0 and (p - b)·d = 0.
      add_roots(Plus(Scaled(rel_x[i], e.dx), Scaled(rel_y[i], e.dy)));
      add_roots(Plus(Scaled(rel_x[b], e.dx), Scaled(rel_y[b], e.dy)));
      // Sign flips: crossing the supporting line.
      add_roots(Plus(Scaled(rel_x[i], -e.dy), Scaled(rel_y[i], e.dx)));
    }
    std::sort(candidates.begin(), candidates.end());

    // Sub-pieces between candidates; classify the selected ones at their
    // midpoints.
    std::vector<double>& starts = scratch.starts;
    starts.assign(1, piece_lo);
    for (double c : candidates) {
      if (c > starts.back() + 1e-12 && c < piece_hi) starts.push_back(c);
    }
    for (size_t s = 0; s < starts.size(); ++s) {
      const double lo = starts[s];
      const bool last_sub = s + 1 == starts.size();
      const double hi = last_sub ? piece_hi : starts[s + 1];
      if (lo > whi) break;
      if (!(hi > wlo || (last_piece && last_sub))) continue;
      if (!out->starts.empty() && out->starts.back() == lo) {
        // Identical start (numerical dedup): keep the earlier piece.
        continue;
      }
      // Beyond the last candidate everything is stable.
      const double sample = std::isfinite(hi) ? 0.5 * (lo + hi) : lo + 1.0;
      const double x = px.Eval(sample);
      const double y = py.Eval(sample);
      // Closest feature by direct geometry (Vec::Dot's accumulation), and
      // ConvexPolygon::Contains: not strictly right of any edge.
      size_t best_feature = 0;
      double best = kInf;
      bool inside = true;
      for (size_t i = 0; i < num_edges; ++i) {
        const Edge& e = edges_[i];
        const double apx = x - e.ax;
        const double apy = y - e.ay;
        double along = 0.0;
        along += apx * e.dx;
        along += apy * e.dy;
        if (along <= 0.0) {
          double d2 = 0.0;
          d2 += apx * apx;
          d2 += apy * apy;
          if (d2 < best) {
            best = d2;
            best_feature = num_edges + i;  // Vertex a == vertex i.
          }
        } else if (along >= e.len2) {
          const double bpx = x - e.bx;
          const double bpy = y - e.by;
          double d2 = 0.0;
          d2 += bpx * bpx;
          d2 += bpy * bpy;
          if (d2 < best) {
            best = d2;
            best_feature = num_edges + (i + 1) % num_edges;
          }
        } else {
          const double perp = apx * e.dy - apy * e.dx;
          const double d2 = perp * perp / e.len2;
          if (d2 < best) {
            best = d2;
            best_feature = i;  // Edge i.
          }
        }
        if (e.dx * apy - e.dy * apx < 0.0) inside = false;
      }
      const Quad& quadratic = features[best_feature];
      out->Append(lo, inside ? Scaled(quadratic, -1.0) : quadratic);
      domain_end = last_piece && last_sub ? trajectory.end_time() : hi;
    }
  }
  return domain_end;
}

GCurve RegionGDistance::Curve(const Trajectory& trajectory) const {
  Pieces pieces;
  const double domain_end =
      BuildPieces(trajectory, TimeInterval::All(), &pieces);
  PiecewisePoly result;
  for (size_t i = 0; i < pieces.starts.size(); ++i) {
    // The constructor trims the +0.0 padding back off.
    result.AppendPiece(pieces.starts[i], Polynomial({pieces.c0[i],
                                                     pieces.c1[i],
                                                     pieces.c2[i]}));
  }
  result.SetDomainEnd(domain_end);
  MODB_DCHECK(result.IsContinuous(1e-5))
      << "region distance curve discontinuous — feature decomposition bug";
  return GCurve::FromPoly(std::move(result));
}

PolySegPool::CurveId RegionGDistance::CurveIntoPool(
    PolySegPool* pool, const Trajectory& trajectory, TimeInterval window,
    GCurve* /*fallback*/) const {
  thread_local Pieces pieces;
  const double domain_end = BuildPieces(trajectory, window, &pieces);
  return pool->AddRaw(pieces.starts.data(), pieces.c0.data(),
                      pieces.c1.data(), pieces.c2.data(),
                      static_cast<uint32_t>(pieces.starts.size()),
                      domain_end);
}

double RegionGDistance::ValueAt(const Trajectory& trajectory,
                                double t) const {
  MODB_CHECK(trajectory.DefinedAt(t))
      << "t=" << t << " outside domain " << trajectory.Domain().ToString();
  thread_local Pieces pieces;
  BuildPieces(trajectory, TimeInterval(t, t), &pieces);
  // Exactly one piece is in effect at t: PiecewisePoly::Eval's.
  MODB_CHECK_EQ(pieces.starts.size(), 1u);
  return EvalTrimmedQuadratic(pieces.c0[0], pieces.c1[0], pieces.c2[0], t);
}

}  // namespace modb
