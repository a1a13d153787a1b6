#include "gme/estimator.hpp"

#include <cmath>
#include <vector>

namespace ae::gme {
namespace {

alib::Call make_gradpack_call() {
  return alib::Call::make_intra(
      alib::PixelOp::GradientPack, alib::Neighborhood::con8(),
      ChannelMask::y(),
      ChannelMask{static_cast<u8>(ChannelMask::alfa().bits() |
                                  ChannelMask::aux().bits())});
}

alib::Call make_gme_accum_call(i32 robust_threshold) {
  alib::OpParams p;
  p.threshold = robust_threshold;
  return alib::Call::make_inter(alib::PixelOp::GmeAccum, ChannelMask::y(),
                                ChannelMask::y(), p);
}

alib::Call make_level_smooth_call() {
  alib::OpParams p;
  p.coeffs = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  p.shift = 4;
  return alib::Call::make_intra(alib::PixelOp::Convolve,
                                alib::Neighborhood::con8(), ChannelMask::y(),
                                ChannelMask::y(), p);
}

}  // namespace

GmeEstimator::GmeEstimator(alib::Backend& backend, GmeParams params)
    : backend_(&backend), params_(params) {
  AE_EXPECTS(params_.pyramid_levels >= 1, "GME needs at least one level");
  AE_EXPECTS(params_.max_iterations_per_level >= 1,
             "GME needs at least one iteration per level");
  AE_EXPECTS(params_.robust_threshold > 0, "robust cutoff must be positive");
}

GmeResult GmeEstimator::estimate(const Pyramid& ref, const Pyramid& cur,
                                 Translation initial) {
  AE_EXPECTS(ref.level_count() == cur.level_count(),
             "pyramids must have matching depth");
  AE_EXPECTS(ref.level_count() >= 1, "empty pyramid");

  GmeResult result;
  result.motion = initial;
  result.converged = true;

  const alib::Call gradpack = make_gradpack_call();
  const alib::Call level_smooth = make_level_smooth_call();

  // Pre-smooth both pyramids once (symmetrically!): smoothing only the
  // warped side would bias every residual against the raw reference and
  // can let a minority motion capture the estimate.
  std::vector<img::Image> ref_s(static_cast<std::size_t>(ref.level_count()));
  std::vector<img::Image> cur_s(static_cast<std::size_t>(cur.level_count()));
  for (int level = 0; level < ref.level_count(); ++level) {
    const auto l = static_cast<std::size_t>(level);
    if (params_.smooth_levels) {
      ref_s[l] = backend_->execute(level_smooth, ref.level(level)).output;
      cur_s[l] = backend_->execute(level_smooth, cur.level(level)).output;
    } else {
      ref_s[l] = ref.level(level);
      cur_s[l] = cur.level(level);
    }
  }

  i32 cutoff = params_.robust_threshold;
  for (int pass = 0; pass < params_.robust_passes; ++pass) {
    const alib::Call accum = make_gme_accum_call(cutoff);
    for (int level = ref.level_count() - 1; level >= 0; --level) {
      const img::Image& ref_l = ref_s[static_cast<std::size_t>(level)];
      const img::Image* cur_l = &cur_s[static_cast<std::size_t>(level)];
      const double scale = std::pow(2.0, level);
      Translation m = result.motion.scaled(1.0 / scale);

      bool level_converged = false;
      u64 last_sad = ~0ull;
      for (int it = 0; it < params_.max_iterations_per_level; ++it) {
        // 1. Warp (host).
        const img::Image warped = warp_translational(*cur_l, m);
        high_level_instr_ += static_cast<u64>(cur_l->pixel_count()) * 20;

        // 2. Pack gradients of the warped image (intra call).
        const img::Image packed = backend_->execute(gradpack, warped).output;

        // 3. Robust normal-equation sums against the reference (inter call).
        const alib::CallResult sums = backend_->execute(accum, ref_l, &packed);
        result.final_sad = sums.side.sad;
        ++result.iterations;

        // 4. Solve the 2x2 system (host).
        const auto& g = sums.side.gme;
        const double gxx = static_cast<double>(g[0]);
        const double gxy = static_cast<double>(g[1]);
        const double gyy = static_cast<double>(g[2]);
        const double gxr = static_cast<double>(g[3]);
        const double gyr = static_cast<double>(g[4]);
        const double det = gxx * gyy - gxy * gxy;
        high_level_instr_ += 200;
        if (g[5] < 64 || std::abs(det) < 1e-3) break;  // degenerate level
        const double ddx = (gyy * gxr - gxy * gyr) / det * kSobelGain;
        const double ddy = (gxx * gyr - gxy * gxr) / det * kSobelGain;
        m.dx += ddx;
        m.dy += ddy;

        if (std::hypot(ddx, ddy) < params_.epsilon) {
          level_converged = true;
          break;
        }
        if (sums.side.sad > last_sad && it > 1) break;  // diverging
        last_sad = sums.side.sad;
        if (m.magnitude() * scale > params_.max_expected_motion) {
          m = result.motion.scaled(1.0 / scale);  // reset runaway level
          break;
        }
      }
      result.converged = result.converged && level_converged;
      result.motion = m.scaled(scale);
    }
    cutoff = std::max(32, cutoff / 2);
  }
  return result;
}

}  // namespace ae::gme
