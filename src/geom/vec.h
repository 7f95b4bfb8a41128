#ifndef MODB_GEOM_VEC_H_
#define MODB_GEOM_VEC_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace modb {

// A point or direction in R^n. The paper works in R^n for arbitrary n > 0
// (airplanes in R^3, cars in R^2); dimension is a run-time property and all
// binary operations require matching dimensions.
class Vec {
 public:
  Vec() = default;
  explicit Vec(size_t dim) : coords_(dim, 0.0) {}
  Vec(std::initializer_list<double> coords) : coords_(coords) {}
  explicit Vec(std::vector<double> coords) : coords_(std::move(coords)) {}

  Vec(const Vec&) = default;
  Vec& operator=(const Vec&) = default;
  Vec(Vec&&) = default;
  Vec& operator=(Vec&&) = default;

  // The all-zero vector of the given dimension.
  static Vec Zero(size_t dim) { return Vec(dim); }

  size_t dim() const { return coords_.size(); }

  double operator[](size_t i) const {
    MODB_DCHECK(i < coords_.size());
    return coords_[i];
  }
  double& operator[](size_t i) {
    MODB_DCHECK(i < coords_.size());
    return coords_[i];
  }

  const std::vector<double>& coords() const { return coords_; }

  // Becomes `dim` copies of `value`, reusing the storage it already has.
  void Assign(size_t dim, double value) { coords_.assign(dim, value); }

  Vec& operator+=(const Vec& other);
  Vec& operator-=(const Vec& other);
  Vec& operator*=(double s);

  // Inner product with `other`.
  double Dot(const Vec& other) const;

  // Squared Euclidean norm. Preferred over Length() in query kernels: it is
  // polynomial in the coordinates, which keeps g-distances polynomial.
  double SquaredLength() const;

  // Euclidean norm (the paper's `len`).
  double Length() const;

  // The unit vector in this direction (the paper's `unit`). Requires a
  // nonzero vector.
  Vec Unit() const;

  // Componentwise equality within `tol`.
  bool AlmostEquals(const Vec& other, double tol = 1e-9) const;

  // "(x0, x1, ..., xk)".
  std::string ToString() const;

 private:
  std::vector<double> coords_;
};

Vec operator+(Vec a, const Vec& b);
Vec operator-(Vec a, const Vec& b);
Vec operator*(Vec a, double s);
Vec operator*(double s, Vec a);
Vec operator-(Vec a);  // Negation.
bool operator==(const Vec& a, const Vec& b);

}  // namespace modb

#endif  // MODB_GEOM_VEC_H_
