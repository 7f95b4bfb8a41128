#include "geom/roots.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace modb {
namespace {

// Normalizes a polynomial so its largest |coefficient| is 1. Keeps Sturm
// remainder coefficients from over/underflowing across long chains.
Polynomial Normalize(const Polynomial& p) {
  double max_abs = 0.0;
  for (double c : p.coeffs()) max_abs = std::max(max_abs, std::fabs(c));
  if (max_abs == 0.0) return p;
  return p * (1.0 / max_abs);
}

int Sign(double x, double tol) {
  if (x > tol) return 1;
  if (x < -tol) return -1;
  return 0;
}

// Counts roots of the chain's p0 in the half-open interval (a, b].
int SturmCount(const std::vector<Polynomial>& chain, double a, double b) {
  return SturmSignVariations(chain, a) - SturmSignVariations(chain, b);
}

// Recursively isolates and refines roots in (a, b] containing `count` roots.
void IsolateRoots(const std::vector<Polynomial>& chain, double a, double b,
                  int count, double tol, std::vector<double>* out) {
  if (count <= 0) return;
  if (b - a <= tol) {
    // All `count` roots are within tol of each other: report one point.
    out->push_back(0.5 * (a + b));
    return;
  }
  double mid = 0.5 * (a + b);
  // Sturm variation counts are ill-defined at a root of p itself — at a
  // multiple root every chain element vanishes, V(mid) collapses to 0 and
  // the split silently loses roots (e.g. t⁴ - t² whose first bisection
  // midpoint is exactly its double root 0). Nudge the split point off any
  // exact root; sub-tol nudges cannot skip a neighboring root.
  for (int nudge = 1; nudge <= 4 && chain[0].Eval(mid) == 0.0; ++nudge) {
    mid = 0.5 * (a + b) + 0.125 * nudge * tol;
  }
  const int left = SturmCount(chain, a, mid);
  IsolateRoots(chain, a, mid, left, tol, out);
  IsolateRoots(chain, mid, b, count - left, tol, out);
}

}  // namespace

std::vector<Polynomial> BuildSturmChain(const Polynomial& p,
                                        const RootOptions& options) {
  std::vector<Polynomial> chain;
  chain.push_back(Normalize(p));
  Polynomial d = p.Derivative();
  if (d.IsZero()) return chain;
  chain.push_back(Normalize(d));
  while (chain.back().degree() > 0) {
    Polynomial rem;
    chain[chain.size() - 2].DivMod(chain.back(), nullptr, &rem);
    // Trim BEFORE normalizing: both inputs have max |coeff| = 1, so a
    // remainder that is "really" zero has coefficients at rounding level;
    // normalizing first would blow that noise up to O(1).
    rem = rem.Trimmed(options.sturm_trim);
    if (rem.IsZero()) break;
    chain.push_back(-Normalize(rem));
  }
  return chain;
}

int SturmSignVariations(const std::vector<Polynomial>& chain, double x) {
  int variations = 0;
  int prev = 0;
  for (const Polynomial& q : chain) {
    // Exact sign at x; zero entries are skipped per Sturm's theorem.
    const double v = q.Eval(x);
    const int s = (v > 0.0) ? 1 : (v < 0.0 ? -1 : 0);
    if (s == 0) continue;
    if (prev != 0 && s != prev) ++variations;
    prev = s;
  }
  return variations;
}

int ClosedFormRootsInInterval(double c0, double c1, double c2, double lo,
                              double hi, double roots[2]) {
  const double coeffs[3] = {c0, c1, c2};
  const int degree = c2 != 0.0 ? 2 : (c1 != 0.0 ? 1 : 0);
  if (degree == 0 || hi < lo) return 0;
  // All roots lie within the Cauchy bound (handles hi = +inf and unbounded
  // lo alike).
  const double bound = CauchyRootBound(coeffs, static_cast<size_t>(degree) + 1);
  if (std::min(hi, bound) < std::max(lo, -bound)) return 0;

  double found[2];
  int num_found = 0;
  if (degree == 1) {
    found[num_found++] = -c0 / c1;
  } else {
    const double disc = c1 * c1 - 4.0 * c2 * c0;
    if (disc == 0.0) {
      found[num_found++] = -c1 / (2.0 * c2);
    } else if (disc > 0.0) {
      // Numerically stable form: compute the larger-magnitude root first.
      const double sq = std::sqrt(disc);
      const double q = -0.5 * (c1 + (c1 >= 0.0 ? sq : -sq));
      double r1 = q / c2;
      double r2 = (q == 0.0) ? r1 : c0 / q;
      if (r1 > r2) std::swap(r1, r2);
      found[num_found++] = r1;
      if (r2 != r1) found[num_found++] = r2;
    }
  }
  int count = 0;
  for (int i = 0; i < num_found; ++i) {
    if (found[i] >= lo && found[i] <= hi) roots[count++] = found[i];
  }
  return count;
}

std::vector<double> RealRootsInInterval(const Polynomial& p, double lo,
                                        double hi,
                                        const RootOptions& options) {
  MODB_CHECK(!p.IsZero()) << "RealRootsInInterval of the zero polynomial";
  if (p.degree() == 0) return {};
  if (hi < lo) return {};

  if (p.degree() <= 2) {
    double roots[2];
    const int count =
        ClosedFormRootsInInterval(p.coeff(0), p.coeff(1), p.coeff(2), lo, hi,
                                  roots);
    return std::vector<double>(roots, roots + count);
  }

  // Clamp the search window by the Cauchy bound (handles hi = +inf and
  // unbounded lo alike).
  const double bound = p.RootBound();
  const double effective_lo = std::max(lo, -bound);
  const double effective_hi = std::min(hi, bound);
  if (effective_hi < effective_lo) return {};

  const std::vector<Polynomial> chain = BuildSturmChain(p, options);

  // Sturm counts roots in (a, b]; nudge both ends outward so roots exactly
  // at the interval endpoints are found (V at an exact root of p is
  // ill-defined).
  const double span = std::max(1.0, effective_hi - effective_lo);
  const double a = effective_lo - options.tol * span;
  const double b = effective_hi + options.tol * span;
  std::vector<double> roots;
  IsolateRoots(chain, a, b, SturmCount(chain, a, b), options.tol, &roots);
  std::sort(roots.begin(), roots.end());
  // Merge roots closer than tol (isolation can split a cluster boundary)
  // and clamp the outward nudge back into the requested interval.
  std::vector<double> merged;
  for (double r : roots) {
    r = std::min(std::max(r, effective_lo), effective_hi);
    if (merged.empty() || r - merged.back() > options.tol) {
      merged.push_back(r);
    }
  }
  return merged;
}

std::vector<double> AllRealRoots(const Polynomial& p,
                                 const RootOptions& options) {
  return RealRootsInInterval(p, -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity(), options);
}

std::optional<double> FirstSignChangeAfter(const Polynomial& p, double lo,
                                           double hi,
                                           const RootOptions& options) {
  if (p.IsZero() || p.degree() == 0) return std::nullopt;
  if (hi <= lo) return std::nullopt;

  const double bound = p.RootBound();
  const double effective_hi = std::min(hi, bound);
  // All roots are <= bound; beyond it the sign is constant.
  if (lo >= effective_hi) return std::nullopt;

  std::vector<double> roots =
      RealRootsInInterval(p, lo, effective_hi, options);
  // Roots at exactly lo do not count ("strictly after").
  while (!roots.empty() && roots.front() <= lo + options.tol) {
    roots.erase(roots.begin());
  }
  if (roots.empty()) return std::nullopt;

  // Walk roots in order; the sign between consecutive roots is constant, so
  // sampling midpoints detects which roots actually flip the sign.
  double prev_sample = 0.5 * (lo + roots.front());
  int prev_sign = Sign(p.Eval(prev_sample), 0.0);
  for (size_t i = 0; i < roots.size(); ++i) {
    const double next_edge =
        (i + 1 < roots.size()) ? roots[i + 1] : effective_hi + 1.0;
    const double sample = 0.5 * (roots[i] + next_edge);
    const int sign_after = Sign(p.Eval(sample), 0.0);
    if (sign_after != 0 && prev_sign != 0 && sign_after != prev_sign) {
      return roots[i];
    }
    if (sign_after != 0) prev_sign = sign_after;
  }
  return std::nullopt;
}

}  // namespace modb
