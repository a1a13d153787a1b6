#include "gme/perspective.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace ae::gme {

std::string to_string(const PerspectiveMotion& m) {
  std::ostringstream os;
  os << "[a " << m.p[0] << " " << m.p[1] << " " << m.p[2] << " | " << m.p[3]
     << " " << m.p[4] << " " << m.p[5] << " | c " << m.p[6] << " " << m.p[7]
     << "]";
  return os.str();
}

img::Image warp_perspective(const img::Image& src,
                            const PerspectiveMotion& m) {
  return detail::warp_rows(src, [&](i32 y, img::Pixel* out) {
    for (i32 x = 0; x < src.width(); ++x) {
      double sx = 0.0;
      double sy = 0.0;
      if (m.apply(x, y, sx, sy))
        detail::sample_bilinear(src, sx, sy, out[x]);
      else
        out[x] = src.clamped(x, y);
    }
  });
}

bool solve_perspective_step(
    const std::array<double, alib::kPerspectiveAccumTerms>& sums,
    std::array<double, 8>& delta, int unknowns) {
  AE_EXPECTS(unknowns == 6 || unknowns == 8,
             "solve the affine subsystem (6) or the full model (8)");
  delta.fill(0.0);
  if (sums[44] < 64.0 * unknowns) return false;  // too few inliers

  const auto n = static_cast<std::size_t>(unknowns);
  double a[8][8];
  double b[8];
  std::size_t k = 0;
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = i; j < 8; ++j) {
      if (i < n && j < n) {
        a[i][j] = sums[k];
        a[j][i] = sums[k];
      }
      ++k;
    }
  for (std::size_t i = 0; i < n; ++i) b[i] = sums[36 + i];

  // Tiny relative ridge: the perspective rows have a vastly smaller
  // natural scale than the affine rows; this keeps the elimination stable
  // without biasing converged solutions.
  for (std::size_t i = 0; i < n; ++i) a[i][i] *= 1.0 + 1e-9;

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    if (std::abs(a[pivot][col]) < 1e-9) return false;
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
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i][j] * delta[j];
    delta[i] = acc / a[i][i];
  }
  for (std::size_t i = 0; i < n; ++i) delta[i] *= kSobelGain;
  for (const double d : delta)
    if (!std::isfinite(d)) return false;
  return true;
}

}  // namespace ae::gme
