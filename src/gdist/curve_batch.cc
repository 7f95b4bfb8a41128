// Pooled crossing kernels over the SOA segment pool. Compiled with
// -ffp-contract=off like the quad-cell kernel TUs: the walk and the
// in-effect cells must produce the same bits whether the cells run scalar
// or AVX2.

#include "gdist/curve_batch.h"

#include <algorithm>

#include "common/check.h"

namespace modb {
namespace {

// Last segment of `r` whose start is <= t: PiecewisePoly::PieceIndexAt's
// upper_bound rule on the pooled plane.
uint32_t SegIndexAt(const PolySegPool::SegRange& r, double t) {
  const double* lo = r.starts + r.first;
  const double* hi = lo + r.count;
  const double* it = std::upper_bound(lo, hi, t);
  MODB_CHECK(it != lo) << "t=" << t << " before the pooled domain";
  return static_cast<uint32_t>(it - lo) - 1;
}

}  // namespace

std::optional<double> FirstCrossingPooled(const PolySegPool& pool,
                                          PolySegPool::CurveId a,
                                          PolySegPool::CurveId b, double lo,
                                          double hi,
                                          const RootOptions& options) {
  const PolySegPool::SegRange ra = pool.View(a);
  const PolySegPool::SegRange rb = pool.View(b);
  // Window = dom(a) ∩ dom(b) ∩ [lo, hi], exactly as GCurve::FirstTimeAbove.
  const double wlo =
      std::max(std::max(ra.starts[ra.first], rb.starts[rb.first]), lo);
  const double whi = std::min(std::min(ra.domain_end, rb.domain_end), hi);
  if (wlo > whi) return std::nullopt;

  double cursor = wlo;
  uint32_t ia = SegIndexAt(ra, cursor);
  uint32_t ib = SegIndexAt(rb, cursor);
  // Walk merged segments [cursor, seg_end] on which both curves are a
  // single quadratic each (FirstTimeDifferencePositive's loop, pooled).
  while (cursor <= whi) {
    double seg_end = whi;
    if (ia + 1 < ra.count) {
      seg_end = std::min(seg_end, ra.starts[ra.first + ia + 1]);
    }
    if (ib + 1 < rb.count) {
      seg_end = std::min(seg_end, rb.starts[rb.first + ib + 1]);
    }
    const size_t sa = ra.first + ia, sb = rb.first + ib;
    const double first = FirstPositiveQuadCell(
        ra.c0[sa] - rb.c0[sb], ra.c1[sa] - rb.c1[sb], ra.c2[sa] - rb.c2[sb],
        cursor, seg_end, options.tol);
    if (first != kInf) return first;
    if (seg_end >= whi || seg_end <= cursor) break;
    cursor = seg_end;
    while (ia + 1 < ra.count && ra.starts[ra.first + ia + 1] <= cursor) ++ia;
    while (ib + 1 < rb.count && rb.starts[rb.first + ib + 1] <= cursor) ++ib;
  }
  return std::nullopt;
}

bool InEffectOver(const PolySegPool& pool, PolySegPool::CurveId id, double lo,
                  double hi, InEffectPiece* piece) {
  const PolySegPool::SegRange r = pool.View(id);
  const size_t last = r.first + r.count - 1;
  if (!(r.starts[last] <= lo && r.domain_end >= hi)) return false;
  *piece = InEffectPiece{r.c0[last], r.c1[last], r.c2[last]};
  return true;
}

double FirstCrossingInEffect(const InEffectPiece& a, const InEffectPiece& b,
                             double lo, double hi,
                             const RootOptions& options) {
  return FirstPositiveQuadCell(a.c0 - b.c0, a.c1 - b.c1, a.c2 - b.c2, lo, hi,
                               options.tol);
}

void FirstCrossingInEffectBatch(const InEffectPiece* pieces,
                                const std::pair<uint32_t, uint32_t>* pairs,
                                size_t n, double lo, double hi,
                                const RootOptions& options, double* out,
                                CrossingScratch* scratch) {
  CrossingScratch& sc = *scratch;
  sc.d0.resize(n);
  sc.d1.resize(n);
  sc.d2.resize(n);
  sc.lo.assign(n, lo);
  sc.hi.assign(n, hi);
  for (size_t i = 0; i < n; ++i) {
    const InEffectPiece& a = pieces[pairs[i].first];
    const InEffectPiece& b = pieces[pairs[i].second];
    sc.d0[i] = a.c0 - b.c0;
    sc.d1[i] = a.c1 - b.c1;
    sc.d2[i] = a.c2 - b.c2;
  }
  const QuadCellBatch cells{sc.d0.data(), sc.d1.data(), sc.d2.data(),
                            sc.lo.data(), sc.hi.data()};
  FirstPositiveQuadBatch(cells, n, options.tol, out);
}

const std::vector<KernelInfo>& KernelRegistry() {
  static const std::vector<KernelInfo>* registry = new std::vector<KernelInfo>{
      {"geom.quad_cell_first_positive", "scalar+avx2",
       "first strictly-positive cell of a quadratic difference on a window"},
      {"gdist.crossing_pooled", "scalar",
       "merged-segment crossing walk for one pooled curve pair"},
      {"gdist.crossing_in_effect", "scalar+avx2",
       "one quad cell for a pair of curves that are each one quadratic "
       "from now to the horizon (the sweep's repairs; batched for a "
       "founding or Theorem-10 rebuild)"},
      {"gdist.euclid_pool_append", "scalar",
       "allocation-free squared-Euclidean curve construction into the pool"},
      {"gdist.euclid_value_at", "scalar",
       "squared-Euclidean g-distance at one instant from the two pieces in "
       "effect, without building the curve"},
      {"gdist.region_pool_append", "scalar",
       "region-distance curve pieces in effect in a time window, built in "
       "fixed-size quadratics into the pool (also Curve() and ValueAt)"},
      {"durability.crc32c", "scalar+sse42",
       "CRC-32C of WAL frames, eight bytes per SSE4.2 crc32 instruction"},
  };
  return *registry;
}

}  // namespace modb
