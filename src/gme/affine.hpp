// Affine global motion: the 6-parameter model of the MPEG-7 GME family
// (between the translational model and the XM's full perspective model).
//
//   x' = a0 + a1 x + a2 y
//   y' = a3 + a4 x + a5 y
//
// The estimator's Gauss-Newton step consumes the normal-equation sums the
// GmeAccumAffine inter op accumulates through the side port.
#pragma once

#include <array>
#include <string>

#include "addresslib/ops.hpp"
#include "gme/motion.hpp"

namespace ae::gme {

struct AffineMotion {
  // Defaults to the identity warp.
  double a0 = 0.0, a1 = 1.0, a2 = 0.0;
  double a3 = 0.0, a4 = 0.0, a5 = 1.0;

  static AffineMotion from_translation(Translation t) {
    AffineMotion m;
    m.a0 = t.dx;
    m.a3 = t.dy;
    return m;
  }

  /// The translational component (mosaic placement uses this).
  Translation translation() const { return {a0, a3}; }

  /// Applies the warp to a point.
  void apply(double x, double y, double& ox, double& oy) const {
    ox = a0 + a1 * x + a2 * y;
    oy = a3 + a4 * x + a5 * y;
  }

  /// Composition: (this ∘ other)(x) = this(other(x)).
  AffineMotion compose(const AffineMotion& other) const;

  /// Rescales the model between pyramid levels: at level l the coordinates
  /// shrink by `factor`; the linear part is scale-invariant, the
  /// translation scales with the grid.
  AffineMotion scaled_translation(double factor) const {
    AffineMotion m = *this;
    m.a0 *= factor;
    m.a3 *= factor;
    return m;
  }

  /// Deviation of the linear part from identity (diagnostic).
  double linear_deviation() const {
    return std::abs(a1 - 1.0) + std::abs(a2) + std::abs(a4) +
           std::abs(a5 - 1.0);
  }
};

std::string to_string(const AffineMotion& m);

/// Warps src by m: out(x, y) = src(m(x, y)), bilinear, border-replicated.
img::Image warp_affine(const img::Image& src, const AffineMotion& m);

namespace detail {
/// The GME solvers' one Gaussian elimination with partial pivoting.  Solves
/// the leading n x n block of the dim x dim (dim <= 8) normal equations
/// packed in `sums` (upper triangle row-major, then the right-hand side),
/// its diagonal scaled by 1 + `ridge`; x[0..n) receives the solution times
/// the Sobel gain.  Returns false when a pivot falls below `pivot_floor` or
/// a solved entry is not finite.  Instantiated for i64 and double sums.
template <class Sum>
bool solve_normal_equations(const Sum* sums, std::size_t dim, std::size_t n,
                            double ridge, double pivot_floor, double* x);
}  // namespace detail

/// Solves the 6x6 normal equations accumulated by GmeAccumAffine.
/// Returns false when the system is degenerate (too few inliers or
/// ill-conditioned).  `delta` receives the parameter update, already
/// corrected for the Sobel gain.
bool solve_affine_step(const std::array<i64, alib::kAffineAccumTerms>& sums,
                       std::array<double, 6>& delta);

}  // namespace ae::gme
