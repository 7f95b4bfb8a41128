#include "geom/polynomial.h"

#include <cmath>
#include <sstream>

#include "common/check.h"

namespace modb {

Polynomial::Polynomial(std::initializer_list<double> coeffs)
    : coeffs_(coeffs) {
  Trim();
}

Polynomial::Polynomial(std::vector<double> coeffs)
    : coeffs_(std::move(coeffs)) {
  Trim();
}

Polynomial Polynomial::Constant(double c) { return Polynomial({c}); }

Polynomial Polynomial::Identity() { return Polynomial({0.0, 1.0}); }

Polynomial Polynomial::Monomial(double c, int k) {
  MODB_CHECK_GE(k, 0);
  if (c == 0.0) return Polynomial();
  std::vector<double> coeffs(static_cast<size_t>(k) + 1, 0.0);
  coeffs.back() = c;
  return Polynomial(std::move(coeffs));
}

void Polynomial::Trim() {
  while (!coeffs_.empty() && coeffs_.back() == 0.0) coeffs_.pop_back();
}

double Polynomial::Eval(double t) const {
  if (coeffs_.empty()) return 0.0;
  // Horner from the leading coefficient, which Trim() keeps nonzero: the
  // operation order of EvalTrimmedQuadratic (curve_pool.h), so the two
  // agree bit for bit at every t, ±∞ included (no 0 · ∞ step).
  double result = coeffs_.back();
  for (size_t i = coeffs_.size() - 1; i-- > 0;) {
    result = result * t + coeffs_[i];
  }
  return result;
}

Polynomial Polynomial::Derivative() const {
  if (coeffs_.size() <= 1) return Polynomial();
  std::vector<double> d(coeffs_.size() - 1);
  for (size_t i = 1; i < coeffs_.size(); ++i) {
    d[i - 1] = coeffs_[i] * static_cast<double>(i);
  }
  return Polynomial(std::move(d));
}

Polynomial Polynomial::Compose(const Polynomial& inner) const {
  // Horner in the polynomial ring: result = a_n; result = result*inner + a_i.
  Polynomial result;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    result *= inner;
    result += Constant(coeffs_[i]);
  }
  return result;
}

Polynomial Polynomial::ShiftArgument(double delta) const {
  return Compose(Polynomial({delta, 1.0}));
}

Polynomial Polynomial::Trimmed(double tol) const {
  std::vector<double> c = coeffs_;
  while (!c.empty() && std::fabs(c.back()) <= tol) c.pop_back();
  return Polynomial(std::move(c));
}

Polynomial& Polynomial::operator+=(const Polynomial& other) {
  if (other.coeffs_.size() > coeffs_.size()) {
    coeffs_.resize(other.coeffs_.size(), 0.0);
  }
  for (size_t i = 0; i < other.coeffs_.size(); ++i) {
    coeffs_[i] += other.coeffs_[i];
  }
  Trim();
  return *this;
}

Polynomial& Polynomial::operator-=(const Polynomial& other) {
  if (other.coeffs_.size() > coeffs_.size()) {
    coeffs_.resize(other.coeffs_.size(), 0.0);
  }
  for (size_t i = 0; i < other.coeffs_.size(); ++i) {
    coeffs_[i] -= other.coeffs_[i];
  }
  Trim();
  return *this;
}

Polynomial& Polynomial::operator*=(const Polynomial& other) {
  if (coeffs_.empty() || other.coeffs_.empty()) {
    coeffs_.clear();
    return *this;
  }
  std::vector<double> product(coeffs_.size() + other.coeffs_.size() - 1, 0.0);
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    for (size_t j = 0; j < other.coeffs_.size(); ++j) {
      product[i + j] += coeffs_[i] * other.coeffs_[j];
    }
  }
  coeffs_ = std::move(product);
  Trim();
  return *this;
}

Polynomial& Polynomial::operator*=(double s) {
  if (s == 0.0) {
    coeffs_.clear();
    return *this;
  }
  for (double& c : coeffs_) c *= s;
  Trim();
  return *this;
}

void Polynomial::DivMod(const Polynomial& divisor, Polynomial* quotient,
                        Polynomial* remainder) const {
  MODB_CHECK(!divisor.IsZero()) << "polynomial division by zero";
  std::vector<double> rem = coeffs_;
  const int dd = divisor.degree();
  const double lead = divisor.LeadingCoeff();
  std::vector<double> quot;
  if (degree() >= dd) {
    quot.assign(static_cast<size_t>(degree() - dd) + 1, 0.0);
    for (int i = degree(); i >= dd; --i) {
      const double factor = rem[static_cast<size_t>(i)] / lead;
      quot[static_cast<size_t>(i - dd)] = factor;
      for (int j = 0; j <= dd; ++j) {
        rem[static_cast<size_t>(i - dd + j)] -=
            factor * divisor.coeffs_[static_cast<size_t>(j)];
      }
      rem[static_cast<size_t>(i)] = 0.0;  // Kill rounding residue exactly.
    }
  }
  if (quotient != nullptr) *quotient = Polynomial(std::move(quot));
  if (remainder != nullptr) {
    rem.resize(static_cast<size_t>(std::max(dd, 0)));
    *remainder = Polynomial(std::move(rem));
  }
}

double CauchyRootBound(const double* coeffs, size_t size) {
  if (size <= 1) return 0.0;
  const double lead = std::fabs(coeffs[size - 1]);
  double max_ratio = 0.0;
  for (size_t i = 0; i + 1 < size; ++i) {
    max_ratio = std::max(max_ratio, std::fabs(coeffs[i]) / lead);
  }
  return 1.0 + max_ratio;
}

bool Polynomial::AlmostEquals(const Polynomial& other, double tol) const {
  const size_t n = std::max(coeffs_.size(), other.coeffs_.size());
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(coeff(i) - other.coeff(i)) > tol) return false;
  }
  return true;
}

std::string Polynomial::ToString() const {
  if (coeffs_.empty()) return "0";
  std::ostringstream out;
  bool first = true;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    const double c = coeffs_[i];
    if (c == 0.0 && coeffs_.size() > 1) continue;
    if (!first) out << (c >= 0.0 ? " + " : " - ");
    const double mag = first ? c : std::fabs(c);
    first = false;
    if (i == 0) {
      out << mag;
    } else {
      if (mag != 1.0) out << mag << " ";
      out << "t";
      if (i > 1) out << "^" << i;
    }
  }
  return out.str();
}

Polynomial operator+(Polynomial a, const Polynomial& b) {
  a += b;
  return a;
}

Polynomial operator-(Polynomial a, const Polynomial& b) {
  a -= b;
  return a;
}

Polynomial operator*(Polynomial a, const Polynomial& b) {
  a *= b;
  return a;
}

Polynomial operator*(Polynomial a, double s) {
  a *= s;
  return a;
}

Polynomial operator*(double s, Polynomial a) {
  a *= s;
  return a;
}

Polynomial operator-(Polynomial a) {
  a *= -1.0;
  return a;
}

bool operator==(const Polynomial& a, const Polynomial& b) {
  return a.coeffs() == b.coeffs();
}

}  // namespace modb
