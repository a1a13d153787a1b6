// Global motion representation and warping for the MPEG-7-style Global
// Motion Estimation experiment (paper section 4.3).
//
// The translational model lives here, with the bilinear sampler every warp
// shares.  The Table 3 reproduction estimates translational motion (the
// synthetic test sequences are pan-dominated, as the paper's mosaicing
// material was); the XM's higher-order models are in gme/affine.hpp and
// gme/perspective.hpp, and one estimator (gme/estimator.hpp) serves all
// three.
#pragma once

#include <cmath>
#include <functional>
#include <string>

#include "image/image.hpp"

namespace ae::gme {

/// Global translational motion in full-resolution pixels: the current frame
/// sampled at (x + dx, y + dy) matches the reference at (x, y).
struct Translation {
  double dx = 0.0;
  double dy = 0.0;

  Translation operator+(Translation o) const { return {dx + o.dx, dy + o.dy}; }
  Translation operator-(Translation o) const { return {dx - o.dx, dy - o.dy}; }
  Translation scaled(double f) const { return {dx * f, dy * f}; }
  double magnitude() const { return std::hypot(dx, dy); }
};

std::string to_string(Translation t);

/// Sobel responses are 8x the central-difference derivative; every solved
/// update is scaled back by this gain.
inline constexpr double kSobelGain = 8.0;

/// Warps `src` by `t`: out(x, y) = src(x + dx, y + dy), bilinear on Y/U/V,
/// border-replicated.  Side channels are not interpolated (they carry
/// packed gradients that are recomputed after warping).  Throws
/// InvalidArgument unless both components are finite.
img::Image warp_translational(const img::Image& src, Translation t);

namespace detail {  // the sampler every warp shares
/// Writes the bilinear sample of `src` at (sx, sy) to `out`, border
/// replicated; Alfa/Aux come from the top-left tap.
void sample_bilinear(const img::Image& src, double sx, double sy,
                     img::Pixel& out);
/// A src-sized image whose rows are filled by `row(y, out_row)`, banded
/// across the shared pool with decimate2's 16-row grain.  The frame is not
/// filled first: `row` must write every pixel of its row.
img::Image warp_rows(const img::Image& src,
                     const std::function<void(i32, img::Pixel*)>& row);
}  // namespace detail

/// Decimates by two with 2x2 averaging (pyramid construction).
img::Image decimate2(const img::Image& src);

}  // namespace ae::gme
