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

  // Tiny relative ridge: the perspective rows have a vastly smaller
  // natural scale than the affine rows; this keeps the elimination stable
  // without biasing converged solutions.
  return detail::solve_normal_equations(sums.data(), 8,
                                        static_cast<std::size_t>(unknowns),
                                        1e-9, 1e-9, delta.data());
}

}  // namespace ae::gme
