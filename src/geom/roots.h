#ifndef MODB_GEOM_ROOTS_H_
#define MODB_GEOM_ROOTS_H_

#include <optional>
#include <vector>

#include "geom/polynomial.h"

namespace modb {

// Options for real-root computation. The defaults are sufficient for the
// synthetic workloads in this repository (coordinates up to ~1e4, degrees
// up to ~8); tighten `tol` for more extreme inputs.
struct RootOptions {
  // Absolute tolerance on root locations.
  double tol = 1e-10;
  // Relative tolerance used to trim near-zero Sturm remainders.
  double sturm_trim = 1e-12;
};

// All distinct real roots of p in the closed interval [lo, hi], sorted
// ascending. Multiplicities are collapsed. `hi` may be +infinity (bounded
// internally by the Cauchy root bound). The zero polynomial is rejected
// (MODB_CHECK); callers must special-case identically-zero differences.
//
// Degrees 1 and 2 use closed forms; degree >= 3 uses Sturm-sequence
// isolation followed by bisection on the Sturm count, which converges even
// at even-multiplicity roots.
std::vector<double> RealRootsInInterval(const Polynomial& p, double lo,
                                        double hi,
                                        const RootOptions& options = {});

// RealRootsInInterval for the trimmed polynomial c0 + c1 t + c2 t² of
// degree <= 2 (its degree is that of the highest nonzero coefficient),
// without allocating: the Cauchy-bound test, then the closed form. Writes
// the distinct roots in [lo, hi] to roots[0..count) in ascending order and
// returns count; degree 0 and the zero polynomial have none.
int ClosedFormRootsInInterval(double c0, double c1, double c2, double lo,
                              double hi, double roots[2]);

// All distinct real roots of p over the whole real line.
std::vector<double> AllRealRoots(const Polynomial& p,
                                 const RootOptions& options = {});

// The smallest time r > lo (strictly) at which p changes sign, i.e. p has a
// root of odd multiplicity at r, restricted to r <= hi. Returns nullopt if p
// never changes sign in (lo, hi]. Touch points (even multiplicity) are
// skipped: the plane sweep must not swap two curves that merely touch.
// If p is identically zero, returns nullopt (no ordering change).
std::optional<double> FirstSignChangeAfter(const Polynomial& p, double lo,
                                           double hi,
                                           const RootOptions& options = {});

// The number of sign variations in the Sturm chain of p evaluated at x;
// exposed for tests.
int SturmSignVariations(const std::vector<Polynomial>& chain, double x);

// The Sturm chain of p (p, p', then negated remainders); exposed for tests.
std::vector<Polynomial> BuildSturmChain(const Polynomial& p,
                                        const RootOptions& options = {});

}  // namespace modb

#endif  // MODB_GEOM_ROOTS_H_
