#ifndef MODB_GDIST_CURVE_BATCH_H_
#define MODB_GDIST_CURVE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "geom/curve_pool.h"
#include "geom/roots_batch.h"

namespace modb {

// Pooled crossing kernels: the sweep's "first time curve a rises above
// curve b" primitive over PolySegPool curves. Semantics and arithmetic
// mirror GCurve::FirstTimeAbove on the packed sources exactly — same
// window intersection, same merged-segment walk, same quadratic cell
// logic — so pooling an engine changes no answer bit (docs/KERNELS.md).

// `gdist.crossing_pooled`: scalar walk for one pair. The sweep walks
// through it, one pair at a time, whenever either curve of a pair has no
// in-effect piece (in its repairs and in a founding or Theorem-10
// rebuild), and the auditor's recomputation always does.
std::optional<double> FirstCrossingPooled(const PolySegPool& pool,
                                          PolySegPool::CurveId a,
                                          PolySegPool::CurveId b, double lo,
                                          double hi,
                                          const RootOptions& options);

// The one quadratic a pooled curve follows over a whole window [lo, hi]:
// its last segment, when that segment starts at or before lo and the
// curve's domain reaches hi. Over the window the curve's pooled walk (and
// PolySegPool::Eval) reads exactly this segment.
struct InEffectPiece {
  double c0 = 0.0;
  double c1 = 0.0;
  double c2 = 0.0;
};

// True, filling `piece`, if curve `id` is one quadratic over [lo, hi] (see
// InEffectPiece); false for a curve with a breakpoint after lo or a domain
// ending before hi.
bool InEffectOver(const PolySegPool& pool, PolySegPool::CurveId id, double lo,
                  double hi, InEffectPiece* piece);

// `gdist.crossing_in_effect`: FirstCrossingPooled for two curves that are
// each one quadratic over [lo, hi] (InEffectOver holds for both): the
// walk's first and only cell, evaluated alone, so the same bits. +inf when
// the pair never crosses in the window.
double FirstCrossingInEffect(const InEffectPiece& a, const InEffectPiece& b,
                             double lo, double hi, const RootOptions& options);

// Staging buffers for FirstCrossingInEffectBatch (SOA cell planes),
// reusable across calls.
struct CrossingScratch {
  std::vector<double> d0, d1, d2, lo, hi;
};

// FirstCrossingInEffect for many pairs of `pieces` (pairs[i] indexes
// both sides): the cells staged as SOA planes and answered in one
// `geom.quad_cell_first_positive` batch, whose lanes have the scalar
// cell's bits. out[i] is +inf when pair i never crosses in [lo, hi].
void FirstCrossingInEffectBatch(const InEffectPiece* pieces,
                                const std::pair<uint32_t, uint32_t>* pairs,
                                size_t n, double lo, double hi,
                                const RootOptions& options, double* out,
                                CrossingScratch* scratch);

// Registry of every kernel entry point; docs/KERNELS.md documents
// exactly this set (enforced by KernelsDocMatchesRegistry).
struct KernelInfo {
  const char* name;      // e.g. "gdist.crossing_in_effect"
  const char* dispatch;  // "scalar", "scalar+avx2" or "scalar+sse42"
  const char* summary;
};
const std::vector<KernelInfo>& KernelRegistry();

}  // namespace modb

#endif  // MODB_GDIST_CURVE_BATCH_H_
