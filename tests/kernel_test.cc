// Tests for the SOA segment pool and the batched sweep kernels: exact
// round-trips, bit-identical pooled/scalar/AVX2 crossing results against
// the legacy GCurve machinery, the direct euclid pool builder, and the
// docs/KERNELS.md lockstep contract.

#include <cmath>
#include <fstream>
#include <random>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gdist/builtin.h"
#include "gdist/curve.h"
#include "gdist/curve_batch.h"
#include "geom/curve_pool.h"
#include "geom/roots_batch.h"
#include "trajectory/trajectory.h"

namespace modb {
namespace {

// Random piecewise-quadratic curve with `pieces` segments on [0, span]
// (finite domain end) or [0, inf) when `unbounded`.
PiecewisePoly RandomQuadPoly(std::mt19937* rng, int pieces, bool unbounded) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  std::uniform_real_distribution<double> gap(0.25, 2.0);
  std::uniform_int_distribution<int> degree(0, 2);
  PiecewisePoly poly;
  double start = 0.0;
  for (int i = 0; i < pieces; ++i) {
    const int deg = degree(*rng);
    std::vector<double> c(static_cast<size_t>(deg) + 1);
    for (double& v : c) v = coeff(*rng);
    if (c.back() == 0.0) c.back() = 1.0;
    poly.AppendPiece(start, Polynomial(c));
    start += gap(*rng);
  }
  poly.SetDomainEnd(unbounded ? kInf : start);
  return poly;
}

TEST(PolySegPoolTest, RoundTripIsExact) {
  std::mt19937 rng(1234);
  PolySegPool pool;
  for (int iter = 0; iter < 200; ++iter) {
    const PiecewisePoly poly =
        RandomQuadPoly(&rng, 1 + iter % 5, iter % 3 == 0);
    ASSERT_TRUE(PolySegPool::Eligible(poly));
    const PolySegPool::CurveId id = pool.Add(poly);
    const PiecewisePoly back = pool.ToPiecewisePoly(id);
    ASSERT_EQ(back.NumPieces(), poly.NumPieces());
    EXPECT_EQ(back.DomainEnd(), poly.DomainEnd());
    for (size_t i = 0; i < poly.NumPieces(); ++i) {
      EXPECT_EQ(back.pieces()[i].start, poly.pieces()[i].start);
      EXPECT_EQ(back.pieces()[i].poly.coeffs(), poly.pieces()[i].poly.coeffs());
    }
    // Eval dispatch is bit-identical, interior breakpoints included.
    std::uniform_real_distribution<double> t(0.0, poly.DomainStart() + 4.0);
    for (int s = 0; s < 20; ++s) {
      const double at = std::min(t(rng), pool.DomainEnd(id));
      EXPECT_EQ(pool.Eval(id, at), poly.Eval(at));
    }
    for (const auto& piece : poly.pieces()) {
      EXPECT_EQ(pool.Eval(id, piece.start), poly.Eval(piece.start));
    }
  }
  pool.CheckInvariants();
}

TEST(PolySegPoolTest, ReleaseRecyclesAndCompacts) {
  std::mt19937 rng(99);
  PolySegPool pool;
  std::vector<PolySegPool::CurveId> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(pool.Add(RandomQuadPoly(&rng, 4, false)));
  }
  // Keep every 8th curve; the rest die. Compaction must trigger and the
  // survivors must still evaluate exactly.
  std::vector<PiecewisePoly> kept_polys;
  std::vector<PolySegPool::CurveId> kept;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 8 == 0) {
      kept.push_back(ids[i]);
      kept_polys.push_back(pool.ToPiecewisePoly(ids[i]));
    } else {
      pool.Release(ids[i]);
    }
  }
  for (int i = 0; i < 64; ++i) {
    pool.Add(RandomQuadPoly(&rng, 2, false));  // Triggers MaybeCompact.
  }
  EXPECT_GT(pool.compactions(), 0u);
  pool.CheckInvariants();
  for (size_t k = 0; k < kept.size(); ++k) {
    const PiecewisePoly back = pool.ToPiecewisePoly(kept[k]);
    ASSERT_EQ(back.NumPieces(), kept_polys[k].NumPieces());
    for (size_t i = 0; i < back.NumPieces(); ++i) {
      EXPECT_EQ(back.pieces()[i].poly.coeffs(),
                kept_polys[k].pieces()[i].poly.coeffs());
    }
  }
}

// Regression: compaction must slide runs in memory order, not id order.
// With id recycling, offsets are non-monotone in id; a sustained random
// add/release churn (the sweep's insert/erase/chdir pattern) makes an
// id-order slide overwrite a not-yet-moved run. Verify every live curve
// after every operation.
TEST(PolySegPoolTest, CompactionSurvivesRecyclingChurn) {
  std::mt19937 rng(5150);
  PolySegPool pool;
  std::vector<std::pair<PolySegPool::CurveId, PiecewisePoly>> live;
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng() % 3 != 0) {
      PiecewisePoly poly =
          RandomQuadPoly(&rng, 1 + static_cast<int>(rng() % 6), false);
      const PolySegPool::CurveId id = pool.Add(poly);
      live.emplace_back(id, std::move(poly));
    } else {
      const size_t victim = rng() % live.size();
      pool.Release(live[victim].first);
      live[victim] = std::move(live.back());
      live.pop_back();
    }
    if (step % 64 == 0) {
      pool.CheckInvariants();
      for (const auto& [id, poly] : live) {
        const PiecewisePoly back = pool.ToPiecewisePoly(id);
        ASSERT_EQ(back.NumPieces(), poly.NumPieces()) << "step " << step;
        for (size_t i = 0; i < poly.NumPieces(); ++i) {
          ASSERT_EQ(back.pieces()[i].start, poly.pieces()[i].start);
          ASSERT_EQ(back.pieces()[i].poly.coeffs(),
                    poly.pieces()[i].poly.coeffs())
              << "step " << step << " curve id " << id << " piece " << i;
        }
      }
    }
  }
  EXPECT_GT(pool.compactions(), 0u);
}

// The pooled scalar walk must reproduce GCurve::FirstTimeAbove bit-for-bit
// on random piecewise-quadratic pairs — including nullopt agreement.
TEST(CrossingPooledTest, MatchesLegacyFirstTimeAbove) {
  std::mt19937 rng(4242);
  const RootOptions options;
  PolySegPool pool;
  std::uniform_real_distribution<double> lo_dist(-1.0, 3.0);
  int crossings = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const PiecewisePoly pa =
        RandomQuadPoly(&rng, 1 + iter % 4, iter % 5 == 0);
    const PiecewisePoly pb =
        RandomQuadPoly(&rng, 1 + (iter / 2) % 4, iter % 7 == 0);
    const GCurve ga = GCurve::FromPoly(pa);
    const GCurve gb = GCurve::FromPoly(pb);
    const PolySegPool::CurveId ia = pool.Add(pa);
    const PolySegPool::CurveId ib = pool.Add(pb);
    const double lo = lo_dist(rng);
    const double hi = (iter % 3 == 0) ? kInf : lo + 6.0;
    const std::optional<double> expected =
        GCurve::FirstTimeAbove(ga, gb, lo, hi, options);
    const std::optional<double> got =
        FirstCrossingPooled(pool, ia, ib, lo, hi, options);
    ASSERT_EQ(got.has_value(), expected.has_value())
        << "iter=" << iter << " lo=" << lo << " hi=" << hi
        << "\n a=" << pa.ToString() << "\n b=" << pb.ToString();
    if (expected.has_value()) {
      ++crossings;
      ASSERT_EQ(*got, *expected)
          << "iter=" << iter << " lo=" << lo << " hi=" << hi
          << "\n a=" << pa.ToString() << "\n b=" << pb.ToString();
    }
    pool.Release(ia);
    pool.Release(ib);
  }
  EXPECT_GT(crossings, 1000);  // The corpus must actually exercise crossings.
}

// Quad-cell corpus: random cells plus the adversarial shapes from the PR 1
// Sturm regression set — near-tangency, exact tangency, negative
// discriminant, linear, constant, identically zero.
struct CellCase {
  double d0, d1, d2, lo, hi;
};

std::vector<CellCase> BuildCellCorpus() {
  std::mt19937 rng(777);
  std::uniform_real_distribution<double> coeff(-4.0, 4.0);
  std::uniform_real_distribution<double> width(0.1, 8.0);
  std::vector<CellCase> cells;
  for (int i = 0; i < 10000; ++i) {
    CellCase c;
    c.d0 = coeff(rng);
    c.d1 = (i % 11 == 0) ? 0.0 : coeff(rng);
    c.d2 = (i % 7 == 0) ? 0.0 : coeff(rng);
    c.lo = coeff(rng);
    c.hi = (i % 9 == 0) ? kInf : c.lo + width(rng);
    cells.push_back(c);
  }
  // (t - c)^2 +/- eps: perturbed tangencies around every scale.
  for (double center : {-2.0, 0.0, 0.5, 3.0}) {
    for (double eps : {0.0, 1e-14, -1e-14, 1e-9, -1e-9, 1e-3, -1e-3}) {
      // (t - center)^2 + eps = t^2 - 2 center t + center^2 + eps.
      cells.push_back(CellCase{center * center + eps, -2.0 * center, 1.0,
                               center - 3.0, center + 3.0});
      cells.push_back(CellCase{-(center * center) + eps, 2.0 * center, -1.0,
                               center - 3.0, center + 3.0});
    }
  }
  cells.push_back(CellCase{0.0, 0.0, 0.0, 0.0, 1.0});   // Identically zero.
  cells.push_back(CellCase{0.0, 0.0, 0.0, 0.0, kInf});
  cells.push_back(CellCase{1.0, 0.0, 0.0, 0.0, kInf});  // Positive constant.
  cells.push_back(CellCase{-1.0, 0.0, 0.0, 0.0, kInf});
  return cells;
}

TEST(QuadCellKernelTest, Avx2MatchesScalarBitExact) {
  if (!Avx2Available()) GTEST_SKIP() << "CPU lacks AVX2";
  const std::vector<CellCase> cells = BuildCellCorpus();
  const size_t n = cells.size();
  std::vector<double> d0(n), d1(n), d2(n), lo(n), hi(n);
  for (size_t i = 0; i < n; ++i) {
    d0[i] = cells[i].d0;
    d1[i] = cells[i].d1;
    d2[i] = cells[i].d2;
    lo[i] = cells[i].lo;
    hi[i] = cells[i].hi;
  }
  const RootOptions options;
  std::vector<double> avx(n);
  const QuadCellBatch batch{d0.data(), d1.data(), d2.data(), lo.data(),
                            hi.data()};
  FirstPositiveQuadBatchAvx2(batch, n, options.tol, avx.data());
  for (size_t i = 0; i < n; ++i) {
    const double scalar = FirstPositiveQuadCell(d0[i], d1[i], d2[i], lo[i],
                                                hi[i], options.tol);
    // Bit-exact: compare representations, not values (both may be inf).
    ASSERT_EQ(std::memcmp(&scalar, &avx[i], sizeof(double)), 0)
        << "cell " << i << ": scalar=" << scalar << " avx2=" << avx[i]
        << " d=(" << d0[i] << ", " << d1[i] << ", " << d2[i] << ") window=["
        << lo[i] << ", " << hi[i] << "]";
  }
}

// FirstCrossingBatch must agree with the per-pair pooled walk under both
// kernels (the batch stages cells in rounds; the walk runs them one by
// one — identical cells, identical answers).
TEST(CrossingBatchTest, MatchesPooledWalkUnderBothKernels) {
  std::mt19937 rng(31337);
  const RootOptions options;
  PolySegPool pool;
  std::vector<CurvePairRef> pairs;
  std::vector<std::optional<double>> expected;
  const double lo = 0.25, hi = 9.0;
  for (int i = 0; i < 4096; ++i) {
    const PiecewisePoly pa = RandomQuadPoly(&rng, 1 + i % 4, i % 5 == 0);
    const PiecewisePoly pb =
        RandomQuadPoly(&rng, 1 + (i / 3) % 4, i % 6 == 0);
    const CurvePairRef ref{pool.Add(pa), pool.Add(pb)};
    pairs.push_back(ref);
    expected.push_back(
        FirstCrossingPooled(pool, ref.a, ref.b, lo, hi, options));
  }
  for (KernelKind kind : {KernelKind::kScalar, KernelKind::kAvx2}) {
    if (kind == KernelKind::kAvx2 && !Avx2Available()) continue;
    SetKernelOverride(kind);
    std::vector<double> out(pairs.size());
    CrossingScratch scratch;
    FirstCrossingBatch(pool, pairs.data(), pairs.size(), lo, hi, options,
                       out.data(), &scratch);
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (expected[i].has_value()) {
        ASSERT_EQ(out[i], *expected[i]) << "pair " << i << " under "
                                        << KernelKindName(kind);
      } else {
        ASSERT_EQ(out[i], kInf) << "pair " << i << " under "
                                << KernelKindName(kind);
      }
    }
  }
  SetKernelOverride(std::nullopt);
}

// The direct euclid pool builder must produce the same coefficients as the
// generic SquaredSeparation path (value equality per coefficient; exactly-
// zero coefficients may differ in zero sign only, which nothing observes).
TEST(EuclidPoolAppendTest, MatchesGenericCurve) {
  std::mt19937 rng(2718);
  std::uniform_real_distribution<double> coord(-10.0, 10.0);
  std::uniform_real_distribution<double> gap(0.5, 3.0);
  std::uniform_int_distribution<int> npieces(1, 4);
  auto random_trajectory = [&](double t0) {
    const int n = npieces(rng);
    Trajectory trajectory = Trajectory::Linear(
        t0, Vec({coord(rng), coord(rng)}),
        Vec({coord(rng) * 0.1, coord(rng) * 0.1}));
    double t = t0;
    for (int i = 1; i < n; ++i) {
      t += gap(rng);
      EXPECT_TRUE(
          trajectory.AddTurn(t, Vec({coord(rng) * 0.1, coord(rng) * 0.1}))
              .ok());
    }
    if (rng() % 2 == 0) {
      EXPECT_TRUE(trajectory.Terminate(t + gap(rng)).ok());
    }
    return trajectory;
  };
  PolySegPool pool;
  for (int iter = 0; iter < 500; ++iter) {
    const Trajectory query = random_trajectory(0.0);
    const Trajectory object = random_trajectory(0.25);
    SquaredEuclideanGDistance gdist(query);
    const GCurve generic = gdist.Curve(object);
    ASSERT_TRUE(generic.is_polynomial());
    GCurve fallback;
    const PolySegPool::CurveId id =
        gdist.CurveIntoPool(&pool, object, TimeInterval::All(), &fallback);
    ASSERT_NE(id, PolySegPool::kInvalidCurve);
    const PiecewisePoly& expect = generic.poly();
    const PiecewisePoly got = pool.ToPiecewisePoly(id);
    ASSERT_EQ(got.NumPieces(), expect.NumPieces()) << "iter=" << iter;
    EXPECT_EQ(got.DomainEnd(), expect.DomainEnd());
    for (size_t i = 0; i < expect.NumPieces(); ++i) {
      EXPECT_EQ(got.pieces()[i].start, expect.pieces()[i].start);
      const Polynomial& pe = expect.pieces()[i].poly;
      const Polynomial& pg = got.pieces()[i].poly;
      // Value equality coefficient-by-coefficient over the padded span.
      for (size_t k = 0; k < 3; ++k) {
        const double ce = k < pe.coeffs().size() ? pe.coeffs()[k] : 0.0;
        const double cg = k < pg.coeffs().size() ? pg.coeffs()[k] : 0.0;
        EXPECT_EQ(ce, cg) << "iter=" << iter << " piece=" << i
                          << " coeff=" << k;
      }
    }
    pool.Release(id);
  }
}

// docs/KERNELS.md lockstep: every registry kernel documented, every
// documented kernel in the registry (mirrors MetricsDocMatchesRegistry).
TEST(KernelsDocTest, KernelsDocMatchesRegistry) {
  std::ifstream doc(std::string(MODB_SOURCE_DIR) + "/docs/KERNELS.md");
  ASSERT_TRUE(doc.is_open()) << "docs/KERNELS.md not found in source tree";
  std::stringstream buffer;
  buffer << doc.rdbuf();
  const std::string text = buffer.str();

  std::set<std::string> documented;
  const std::regex token("`((?:geom|gdist|durability)\\.[a-z0-9_]+)`");
  for (std::sregex_iterator it(text.begin(), text.end(), token), end;
       it != end; ++it) {
    documented.insert((*it)[1]);
  }
  std::set<std::string> registered;
  for (const KernelInfo& info : KernelRegistry()) {
    registered.insert(info.name);
  }
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.count(name) > 0)
        << "kernel `" << name << "` is not documented in docs/KERNELS.md";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.count(name) > 0)
        << "docs/KERNELS.md documents `" << name
        << "` which is not in KernelRegistry()";
  }
}

}  // namespace
}  // namespace modb
