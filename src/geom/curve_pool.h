#ifndef MODB_GEOM_CURVE_POOL_H_
#define MODB_GEOM_CURVE_POOL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "common/check.h"
#include "geom/piecewise_poly.h"

namespace modb {

// Trimmed Horner on c0 + c1 t + c2 t²: skips exactly the zero high-order
// coefficients Polynomial trims, so the result equals Polynomial::Eval on
// the trimmed coefficients bit for bit (the operation order is the same).
// Shared by every pooled and point evaluation of a quadratic piece.
inline double EvalTrimmedQuadratic(double c0, double c1, double c2,
                                   double t) {
  if (c2 != 0.0) return (c2 * t + c1) * t + c0;
  if (c1 != 0.0) return c1 * t + c0;
  return c0;
}

// A 64-byte-aligned growable array of doubles: the backing storage of the
// segment pool's SOA planes. Alignment matters twice over — an aligned
// plane never splits a 4-lane AVX2 load across cache lines, and the four
// planes stay mutually congruent so the same segment index hits the same
// line offset in each.
class AlignedDoubles {
 public:
  AlignedDoubles() = default;
  ~AlignedDoubles() { Free(); }
  AlignedDoubles(const AlignedDoubles&) = delete;
  AlignedDoubles& operator=(const AlignedDoubles&) = delete;

  const double* data() const { return data_; }
  double* data() { return data_; }
  size_t size() const { return size_; }
  double operator[](size_t i) const { return data_[i]; }
  double& operator[](size_t i) { return data_[i]; }

  void PushBack(double v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = v;
  }
  void Resize(size_t n) {
    if (n > capacity_) Grow(n);
    size_ = n;
  }
  void Clear() { size_ = 0; }

 private:
  void Grow(size_t at_least) {
    size_t cap = capacity_ == 0 ? 64 : capacity_ * 2;
    while (cap < at_least) cap *= 2;
    double* fresh = static_cast<double*>(
        ::operator new(cap * sizeof(double), std::align_val_t(64)));
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(double));
    Free();
    data_ = fresh;
    capacity_ = cap;
  }
  void Free() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(64));
      data_ = nullptr;
    }
  }

  double* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

// Arena-allocated structure-of-arrays pool of piecewise-quadratic curves:
// the storage layer under the sweep's batched kernels (docs/KERNELS.md).
//
// A pooled curve is a contiguous run of segments in four parallel
// 64-byte-aligned planes — start, c0, c1, c2 — plus per-curve metadata
// (first segment, count, domain end). Segment i covers
// [start[i], start[i+1]] (the last segment up to the domain end) and
// evaluates as the trimmed polynomial c0 + c1 t + c2 t², exactly like the
// PiecewisePoly it was packed from: coefficients are copied verbatim and
// absent high-order coefficients are stored as +0.0, so reconstruction
// round-trips bit-for-bit.
//
// Curve ids are stable: releases and compaction move segments, never ids.
// Compaction runs inside Add() when more than half the occupied segment
// range is dead; it depends only on the operation sequence, so two sweeps
// fed identical inputs stay in lockstep (the fuzz differential relies on
// this).
class PolySegPool {
 public:
  using CurveId = uint32_t;
  static constexpr CurveId kInvalidCurve = 0xffffffffu;

  PolySegPool() = default;
  PolySegPool(const PolySegPool&) = delete;
  PolySegPool& operator=(const PolySegPool&) = delete;

  // True if `poly` can be pooled: non-empty with every piece of degree <= 2.
  static bool Eligible(const PiecewisePoly& poly);

  // Packs an eligible PiecewisePoly; coefficients are copied exactly.
  CurveId Add(const PiecewisePoly& poly);

  // Raw SOA form: `n` segments with strictly increasing starts, valid up to
  // `domain_end` (>= starts[n-1]).
  CurveId AddRaw(const double* starts, const double* c0, const double* c1,
                 const double* c2, uint32_t n, double domain_end);

  // One constant segment on [-inf, +inf] (the sentinel curve).
  CurveId AddConstant(double value);

  // Returns the curve's segments to the arena; the id is recycled.
  void Release(CurveId id);

  double DomainStart(CurveId id) const { return starts_[Meta(id).first]; }
  double DomainEnd(CurveId id) const { return Meta(id).domain_end; }
  TimeInterval Domain(CurveId id) const {
    return TimeInterval(DomainStart(id), DomainEnd(id));
  }
  bool Covers(CurveId id, double t) const { return Domain(id).Contains(t); }
  uint32_t NumSegments(CurveId id) const { return Meta(id).count; }

  // Value at t (must be inside the domain); bit-identical to
  // PiecewisePoly::Eval on the packed source, including the pick-the-later-
  // piece rule at interior breakpoints.
  double Eval(CurveId id, double t) const;

  // Reconstructs the packed curve; round-trips Add() exactly (padding
  // zeros re-trim away).
  PiecewisePoly ToPiecewisePoly(CurveId id) const;

  // Zero-copy view for the kernels: segment s of the curve lives at index
  // first + s of each plane.
  struct SegRange {
    const double* starts;
    const double* c0;
    const double* c1;
    const double* c2;
    uint32_t first;
    uint32_t count;
    double domain_end;
  };
  SegRange View(CurveId id) const {
    const CurveMeta& m = Meta(id);
    return SegRange{starts_.data(), c0_.data(), c1_.data(), c2_.data(),
                    m.first, m.count, m.domain_end};
  }

  size_t live_curves() const { return live_curves_; }
  size_t live_segments() const { return live_segments_; }
  // Arena occupancy including dead (released, not yet compacted) segments.
  size_t occupied_segments() const { return starts_.size(); }
  uint64_t compactions() const { return compactions_; }

  // For tests: verifies per-curve start monotonicity and meta consistency.
  void CheckInvariants() const;

 private:
  struct CurveMeta {
    uint32_t first = 0;
    uint32_t count = 0;
    double domain_end = 0.0;
    bool live = false;
  };

  const CurveMeta& Meta(CurveId id) const {
    MODB_CHECK(id < metas_.size() && metas_[id].live)
        << "invalid curve id " << id;
    return metas_[id];
  }

  CurveId AllocId();
  // Rewrites the planes with only live curves, in id order, when more than
  // half of the occupied range is dead.
  void MaybeCompact();

  AlignedDoubles starts_, c0_, c1_, c2_;
  std::vector<CurveMeta> metas_;
  std::vector<CurveId> free_ids_;
  size_t live_curves_ = 0;
  size_t live_segments_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace modb

#endif  // MODB_GEOM_CURVE_POOL_H_
