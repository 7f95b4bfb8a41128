#include "geom/curve_pool.h"

#include <algorithm>

namespace modb {

bool PolySegPool::Eligible(const PiecewisePoly& poly) {
  if (poly.empty()) return false;
  for (const PiecewisePoly::Piece& piece : poly.pieces()) {
    if (piece.poly.degree() > 2) return false;
  }
  return true;
}

PolySegPool::CurveId PolySegPool::Add(const PiecewisePoly& poly) {
  MODB_CHECK(Eligible(poly)) << "pooling a curve with a piece of degree > 2";
  MaybeCompact();
  const CurveId id = AllocId();
  CurveMeta& m = metas_[id];
  m.first = static_cast<uint32_t>(starts_.size());
  m.count = static_cast<uint32_t>(poly.NumPieces());
  m.domain_end = poly.DomainEnd();
  m.live = true;
  for (const PiecewisePoly::Piece& piece : poly.pieces()) {
    starts_.PushBack(piece.start);
    c0_.PushBack(piece.poly.coeff(0));
    c1_.PushBack(piece.poly.coeff(1));
    c2_.PushBack(piece.poly.coeff(2));
  }
  ++live_curves_;
  live_segments_ += m.count;
  return id;
}

PolySegPool::CurveId PolySegPool::AddRaw(const double* starts,
                                         const double* c0, const double* c1,
                                         const double* c2, uint32_t n,
                                         double domain_end) {
  MODB_CHECK(n > 0u) << "pooling an empty curve";
  MODB_CHECK_GE(domain_end, starts[n - 1]);
  MaybeCompact();
  const CurveId id = AllocId();
  CurveMeta& m = metas_[id];
  m.first = static_cast<uint32_t>(starts_.size());
  m.count = n;
  m.domain_end = domain_end;
  m.live = true;
  for (uint32_t i = 0; i < n; ++i) {
    MODB_CHECK(i == 0 || starts[i] > starts[i - 1])
        << "segment starts must be strictly increasing";
    starts_.PushBack(starts[i]);
    c0_.PushBack(c0[i]);
    c1_.PushBack(c1[i]);
    c2_.PushBack(c2[i]);
  }
  ++live_curves_;
  live_segments_ += n;
  return id;
}

PolySegPool::CurveId PolySegPool::AddConstant(double value) {
  const double start = -kInf;
  const double zero = 0.0;
  return AddRaw(&start, &value, &zero, &zero, 1, kInf);
}

void PolySegPool::Release(CurveId id) {
  Meta(id);  // Validates the id.
  CurveMeta& m = metas_[id];
  m.live = false;
  --live_curves_;
  live_segments_ -= m.count;
  free_ids_.push_back(id);
}

double PolySegPool::Eval(CurveId id, double t) const {
  const CurveMeta& m = Meta(id);
  MODB_CHECK(Covers(id, t)) << "t=" << t << " outside pooled domain ["
                            << DomainStart(id) << ", " << m.domain_end << "]";
  // Last segment whose start <= t — the same upper_bound rule as
  // PiecewisePoly::PieceIndexAt, so interior breakpoints pick the later
  // segment.
  const double* lo = starts_.data() + m.first;
  const double* hi = lo + m.count;
  const double* it = std::upper_bound(lo, hi, t);
  MODB_CHECK(it != lo);
  const size_t s = m.first + static_cast<size_t>(it - lo) - 1;
  return EvalTrimmedQuadratic(c0_[s], c1_[s], c2_[s], t);
}

PiecewisePoly PolySegPool::ToPiecewisePoly(CurveId id) const {
  const CurveMeta& m = Meta(id);
  PiecewisePoly poly;
  for (uint32_t i = 0; i < m.count; ++i) {
    const size_t s = m.first + i;
    // The Polynomial constructor trims the +0.0 padding back off, so this
    // is the exact pre-pooling piece.
    poly.AppendPiece(starts_[s], Polynomial({c0_[s], c1_[s], c2_[s]}));
  }
  poly.SetDomainEnd(m.domain_end);
  return poly;
}

PolySegPool::CurveId PolySegPool::AllocId() {
  if (!free_ids_.empty()) {
    const CurveId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  metas_.push_back(CurveMeta{});
  return static_cast<CurveId>(metas_.size() - 1);
}

void PolySegPool::MaybeCompact() {
  if (starts_.size() < 128 || live_segments_ * 2 > starts_.size()) return;
  // Slide live runs left in MEMORY order (ascending `first`), not id order:
  // recycled ids make offsets non-monotone in id, and a destination must
  // never overtake a still-unmoved source. With sources ascending, every
  // destination w is <= its source, so each memmove only overwrites dead
  // space or the run's own prefix. Ids are untouched.
  std::vector<CurveId> live;
  live.reserve(live_curves_);
  for (CurveId id = 0; id < metas_.size(); ++id) {
    if (metas_[id].live) live.push_back(id);
  }
  std::sort(live.begin(), live.end(), [this](CurveId a, CurveId b) {
    return metas_[a].first < metas_[b].first;
  });
  size_t w = 0;
  for (const CurveId id : live) {
    CurveMeta& m = metas_[id];
    if (m.first != w) {
      std::memmove(starts_.data() + w, starts_.data() + m.first,
                   m.count * sizeof(double));
      std::memmove(c0_.data() + w, c0_.data() + m.first,
                   m.count * sizeof(double));
      std::memmove(c1_.data() + w, c1_.data() + m.first,
                   m.count * sizeof(double));
      std::memmove(c2_.data() + w, c2_.data() + m.first,
                   m.count * sizeof(double));
      m.first = static_cast<uint32_t>(w);
    }
    w += m.count;
  }
  starts_.Resize(w);
  c0_.Resize(w);
  c1_.Resize(w);
  c2_.Resize(w);
  ++compactions_;
}

void PolySegPool::CheckInvariants() const {
  size_t live_curves = 0, live_segments = 0;
  for (CurveId id = 0; id < metas_.size(); ++id) {
    const CurveMeta& m = metas_[id];
    if (!m.live) continue;
    ++live_curves;
    live_segments += m.count;
    MODB_CHECK(m.count > 0u);
    MODB_CHECK_LE(m.first + m.count, starts_.size());
    for (uint32_t i = 1; i < m.count; ++i) {
      MODB_CHECK(starts_[m.first + i] > starts_[m.first + i - 1]);
    }
    MODB_CHECK_GE(m.domain_end, starts_[m.first + m.count - 1]);
  }
  MODB_CHECK_EQ(live_curves, live_curves_);
  MODB_CHECK_EQ(live_segments, live_segments_);
}

}  // namespace modb
