#include "gme/affine.hpp"

#include <cmath>
#include <sstream>

namespace ae::gme {

AffineMotion AffineMotion::compose(const AffineMotion& other) const {
  // this(other(x)): substitute other's output into this.
  AffineMotion r;
  r.a0 = a0 + a1 * other.a0 + a2 * other.a3;
  r.a1 = a1 * other.a1 + a2 * other.a4;
  r.a2 = a1 * other.a2 + a2 * other.a5;
  r.a3 = a3 + a4 * other.a0 + a5 * other.a3;
  r.a4 = a4 * other.a1 + a5 * other.a4;
  r.a5 = a4 * other.a2 + a5 * other.a5;
  return r;
}

std::string to_string(const AffineMotion& m) {
  std::ostringstream os;
  os << "[" << m.a0 << " " << m.a1 << " " << m.a2 << "; " << m.a3 << " "
     << m.a4 << " " << m.a5 << "]";
  return os.str();
}

img::Image warp_affine(const img::Image& src, const AffineMotion& m) {
  return detail::warp_rows(src, [&](i32 y, img::Pixel* out) {
    for (i32 x = 0; x < src.width(); ++x) {
      double sx = 0.0;
      double sy = 0.0;
      m.apply(x, y, sx, sy);
      detail::sample_bilinear(src, sx, sy, out[x]);
    }
  });
}

bool solve_affine_step(const std::array<i64, alib::kAffineAccumTerms>& sums,
                       std::array<double, 6>& delta) {
  if (sums[27] < 256) return false;  // too few inliers for six parameters
  return detail::solve_normal_equations(sums.data(), 6, 6, 0.0, 1e-6,
                                        delta.data());
}

namespace detail {

template <class Sum>
bool solve_normal_equations(const Sum* sums, std::size_t dim, std::size_t n,
                            double ridge, double pivot_floor, double* x) {
  // Rebuild the symmetric matrix and the right-hand side.
  double a[8][8];
  double b[8];
  std::size_t k = 0;
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = i; j < dim; ++j, ++k)
      if (i < n && j < n) {
        a[i][j] = static_cast<double>(sums[k]);
        a[j][i] = a[i][j];
      }
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<double>(sums[k + i]);
  for (std::size_t i = 0; i < n; ++i) a[i][i] *= 1.0 + ridge;

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    if (std::abs(a[pivot][col]) < pivot_floor) return false;  // singular
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a[col][j], a[pivot][j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row][col] / a[col][col];
      for (std::size_t j = col; j < n; ++j) a[row][j] -= f * a[col][j];
      b[row] -= f * b[col];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * x[j];
    x[i] = acc / a[i][i];
  }
  for (std::size_t i = 0; i < n; ++i) x[i] *= kSobelGain;
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(x[i])) return false;
  return true;
}

template bool solve_normal_equations(const i64*, std::size_t, std::size_t,
                                     double, double, double*);
template bool solve_normal_equations(const double*, std::size_t, std::size_t,
                                     double, double, double*);

}  // namespace detail

}  // namespace ae::gme
