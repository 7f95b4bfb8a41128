#ifndef MODB_GEOM_POLYNOMIAL_H_
#define MODB_GEOM_POLYNOMIAL_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace modb {

// The Cauchy root bound of the trimmed polynomial with ascending
// coefficients coeffs[0..size): 1 + max |a_i / a_n| over the lower
// coefficients, 0 for size <= 1. Polynomial::RootBound and the
// allocation-free closed-form roots (geom/roots.h) both use it.
double CauchyRootBound(const double* coeffs, size_t size);

// A univariate polynomial over double coefficients, stored in ascending
// order: coeffs()[i] is the coefficient of t^i. The representation is kept
// trimmed (no trailing exact-zero coefficients), so degree() is
// coeffs().size() - 1, and the zero polynomial has degree -1.
//
// Polynomials are the workhorse of the g-distance framework: squared
// Euclidean distance between two linear trajectories is a quadratic in t,
// the fastest-arrival time of Example 9 is quadratic, and polynomial time
// terms compose to higher degrees. All operations here are exact up to
// floating-point rounding.
class Polynomial {
 public:
  // The zero polynomial.
  Polynomial() = default;
  // From ascending coefficients {a0, a1, ...} = a0 + a1 t + ...
  Polynomial(std::initializer_list<double> coeffs);
  explicit Polynomial(std::vector<double> coeffs);

  Polynomial(const Polynomial&) = default;
  Polynomial& operator=(const Polynomial&) = default;
  Polynomial(Polynomial&&) = default;
  Polynomial& operator=(Polynomial&&) = default;

  // The constant polynomial c.
  static Polynomial Constant(double c);
  // The identity polynomial t.
  static Polynomial Identity();
  // c * t^k.
  static Polynomial Monomial(double c, int k);

  // Degree; -1 for the zero polynomial.
  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  bool IsZero() const { return coeffs_.empty(); }
  const std::vector<double>& coeffs() const { return coeffs_; }
  // Coefficient of t^i (0.0 beyond the stored degree).
  double coeff(size_t i) const {
    return i < coeffs_.size() ? coeffs_[i] : 0.0;
  }
  // The coefficient of the highest power; 0.0 for the zero polynomial.
  double LeadingCoeff() const {
    return coeffs_.empty() ? 0.0 : coeffs_.back();
  }

  // Horner evaluation at t.
  double Eval(double t) const;

  // First derivative.
  Polynomial Derivative() const;

  // Composition: (*this)(inner(t)).
  Polynomial Compose(const Polynomial& inner) const;

  // Shift of argument: p(t + delta). Used when re-anchoring trajectory
  // pieces after a chdir update.
  Polynomial ShiftArgument(double delta) const;

  // Drops leading coefficients with |a_i| <= tol. Numerical remainders from
  // Sturm sequences need this to avoid spurious high degrees.
  Polynomial Trimmed(double tol) const;

  Polynomial& operator+=(const Polynomial& other);
  Polynomial& operator-=(const Polynomial& other);
  Polynomial& operator*=(const Polynomial& other);
  Polynomial& operator*=(double s);

  // Euclidean division: *this = q * divisor + r with deg r < deg divisor.
  // Requires a nonzero divisor. Outputs are optional (may be null).
  void DivMod(const Polynomial& divisor, Polynomial* quotient,
              Polynomial* remainder) const;

  // A bound B such that all real roots lie in [-B, B] (Cauchy bound).
  // Returns 0 for constant/zero polynomials.
  double RootBound() const {
    return CauchyRootBound(coeffs_.data(), coeffs_.size());
  }

  bool AlmostEquals(const Polynomial& other, double tol = 1e-9) const;

  // Human-readable form, e.g. "3 t^2 - t + 0.5".
  std::string ToString() const;

 private:
  void Trim();

  std::vector<double> coeffs_;  // Ascending; invariant: back() != 0.
};

Polynomial operator+(Polynomial a, const Polynomial& b);
Polynomial operator-(Polynomial a, const Polynomial& b);
Polynomial operator*(Polynomial a, const Polynomial& b);
Polynomial operator*(Polynomial a, double s);
Polynomial operator*(double s, Polynomial a);
Polynomial operator-(Polynomial a);  // Negation.
bool operator==(const Polynomial& a, const Polynomial& b);

}  // namespace modb

#endif  // MODB_GEOM_POLYNOMIAL_H_
