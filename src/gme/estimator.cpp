#include "gme/estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

namespace ae::gme {
namespace {

/// The level one Gauss-Newton iteration runs on.
struct Level {
  int index;      ///< 0 is full resolution
  double scale;   ///< full-resolution pixels per level pixel (2^index)
  double extent;  ///< half the level's larger side, in level pixels
};

alib::Call accum_call(alib::PixelOp op, i32 robust_threshold,
                      std::vector<double> warp_params = {}) {
  alib::OpParams p;
  p.threshold = robust_threshold;
  p.warp_params = std::move(warp_params);
  return alib::Call::make_inter(op, ChannelMask::y(), ChannelMask::y(), p);
}

/// Step size of a linear-model update: the translation update in pixels
/// plus the linear update expressed at the level's extent.
template <std::size_t N>
double linear_step(const std::array<double, N>& delta, double extent) {
  return std::hypot(delta[0], delta[3]) +
         extent * (std::abs(delta[1]) + std::abs(delta[2]) +
                   std::abs(delta[4]) + std::abs(delta[5]));
}

// What differs between the motion models:
//   kWarpInstr, kSolveInstr  host instructions per warped pixel, per solve
//   warp(src, m)             the host warp
//   accum(cutoff, m)         the inter accumulator call
//   step(side, level, m)     solves the side-port sums and updates m;
//                            returns the step size, nothing if degenerate
//   rescale(m, f)            m on a grid `f` times as fine
//   runaway(m, level, max)   true when m left the plausible range
template <class Motion>
struct Model;

template <>
struct Model<Translation> {
  static constexpr u64 kWarpInstr = 20;
  static constexpr u64 kSolveInstr = 200;

  static constexpr auto warp = warp_translational;
  static alib::Call accum(i32 cutoff, const Translation&) {
    return accum_call(alib::PixelOp::GmeAccum, cutoff);
  }
  static std::optional<double> step(const alib::SideAccum& side, const Level&,
                                    Translation& m) {
    const auto& g = side.gme;
    const double gxx = static_cast<double>(g[0]);
    const double gxy = static_cast<double>(g[1]);
    const double gyy = static_cast<double>(g[2]);
    const double gxr = static_cast<double>(g[3]);
    const double gyr = static_cast<double>(g[4]);
    const double det = gxx * gyy - gxy * gxy;
    if (g[5] < 64 || std::abs(det) < 1e-3) return std::nullopt;
    const double ddx = (gyy * gxr - gxy * gyr) / det * kSobelGain;
    const double ddy = (gxx * gyr - gxy * gxr) / det * kSobelGain;
    m.dx += ddx;
    m.dy += ddy;
    return std::hypot(ddx, ddy);
  }
  static Translation rescale(const Translation& m, double f) {
    return m.scaled(f);
  }
  static bool runaway(const Translation& m, const Level& level, double max) {
    return m.magnitude() * level.scale > max;
  }
};

template <>
struct Model<AffineMotion> {
  static constexpr u64 kWarpInstr = 26;
  static constexpr u64 kSolveInstr = 600;  // 6x6 elimination

  static constexpr auto warp = warp_affine;
  static alib::Call accum(i32 cutoff, const AffineMotion&) {
    return accum_call(alib::PixelOp::GmeAccumAffine, cutoff);
  }
  static std::optional<double> step(const alib::SideAccum& side,
                                    const Level& level, AffineMotion& m) {
    std::array<double, 6> delta{};
    if (!solve_affine_step(side.gme_affine, delta)) return std::nullopt;
    // The warp is linear in its parameters: additive update.
    m.a0 += delta[0];
    m.a1 += delta[1];
    m.a2 += delta[2];
    m.a3 += delta[3];
    m.a4 += delta[4];
    m.a5 += delta[5];
    return linear_step(delta, level.extent);
  }
  static AffineMotion rescale(const AffineMotion& m, double f) {
    return m.scaled_translation(f);
  }
  static bool runaway(const AffineMotion& m, const Level& level, double max) {
    return m.translation().magnitude() * level.scale > max ||
           m.linear_deviation() > 0.5;
  }
};

template <>
struct Model<PerspectiveMotion> {
  static constexpr u64 kWarpInstr = 32;
  static constexpr u64 kSolveInstr = 1200;  // up-to-8x8 elimination

  static constexpr auto warp = warp_perspective;
  // The op is statically configured per call, like every engine operation:
  // the call carries the current warp.
  static alib::Call accum(i32 cutoff, const PerspectiveMotion& m) {
    return accum_call(alib::PixelOp::GmePerspective, cutoff,
                      {m.p.begin(), m.p.end()});
  }
  static std::optional<double> step(const alib::SideAccum& side,
                                    const Level& level, PerspectiveMotion& m) {
    // The perspective terms only become observable at full resolution; the
    // coarse levels run the affine update.
    std::array<double, 8> delta{};
    if (!solve_perspective_step(side.gme_persp, delta,
                                level.index == 0 ? 8 : 6))
      return std::nullopt;
    for (std::size_t i = 0; i < 8; ++i) m.p[i] += delta[i];
    return linear_step(delta, level.extent) +
           level.extent * level.extent *
               (std::abs(delta[6]) + std::abs(delta[7]));
  }
  static PerspectiveMotion rescale(const PerspectiveMotion& m, double f) {
    return m.scaled(f);
  }
  static bool runaway(const PerspectiveMotion& m, const Level& level,
                      double max) {
    const double persp_extent =
        (std::abs(m.p[6]) + std::abs(m.p[7])) * level.extent;
    return m.translation().magnitude() * level.scale > max ||
           m.deviation_from_translation() - persp_extent > 0.5 ||
           persp_extent > 0.4;
  }
};

}  // namespace

GmeEstimator::GmeEstimator(alib::Backend& backend, GmeParams params)
    : backend_(&backend), params_(params) {
  AE_EXPECTS(params_.pyramid_levels >= 1, "GME needs at least one level");
  AE_EXPECTS(params_.max_iterations_per_level >= 1,
             "GME needs at least one iteration per level");
  AE_EXPECTS(params_.robust_threshold > 0, "robust cutoff must be positive");
}

template <class Motion>
GmeResultOf<Motion> GmeEstimator::estimate(const Pyramid& ref,
                                           const Pyramid& cur,
                                           Motion initial) {
  using M = Model<Motion>;
  AE_EXPECTS(ref.level_count() == cur.level_count(),
             "pyramids must have matching depth");
  AE_EXPECTS(ref.level_count() >= 1, "empty pyramid");

  GmeResultOf<Motion> result;
  result.motion = initial;
  result.converged = true;
  const auto run = [&](const alib::Call& call, const img::Image& a,
                       const img::Image* b = nullptr) {
    ++result.calls;
    return backend_->execute(call, a, b);
  };

  // Pre-smooth both pyramids once (symmetrically!): smoothing only the
  // warped side would bias every residual against the raw reference and
  // can let a minority motion capture the estimate.
  Pyramid ref_smooth;
  Pyramid cur_smooth;
  if (params_.smooth_levels) {
    const alib::Call smooth = binomial_smooth_call();
    for (int level = 0; level < ref.level_count(); ++level) {
      ref_smooth.levels.push_back(run(smooth, ref.level(level)).output);
      cur_smooth.levels.push_back(run(smooth, cur.level(level)).output);
    }
  }
  const Pyramid& ref_p = params_.smooth_levels ? ref_smooth : ref;
  const Pyramid& cur_p = params_.smooth_levels ? cur_smooth : cur;

  const alib::Call gradpack = alib::Call::make_intra(
      alib::PixelOp::GradientPack, alib::Neighborhood::con8(),
      ChannelMask::y(), ChannelMask::alfa().with(Channel::Aux));
  i32 cutoff = params_.robust_threshold;
  for (int pass = 0; pass < params_.robust_passes; ++pass) {
    for (int index = ref_p.level_count() - 1; index >= 0; --index) {
      const img::Image& ref_l = ref_p.level(index);
      const img::Image& cur_l = cur_p.level(index);
      const Level level{index, std::pow(2.0, index),
                        std::max(cur_l.width(), cur_l.height()) / 2.0};
      Motion m = M::rescale(result.motion, 1.0 / level.scale);

      bool level_converged = false;
      u64 last_sad = ~0ull;
      for (int it = 0; it < params_.max_iterations_per_level; ++it) {
        // 1. Warp (host).
        const img::Image warped = M::warp(cur_l, m);
        high_level_instr_ +=
            static_cast<u64>(cur_l.pixel_count()) * M::kWarpInstr;

        // 2. Pack gradients of the warped image (intra call).
        const img::Image packed = run(gradpack, warped).output;

        // 3. Robust normal-equation sums against the reference (inter call).
        const alib::CallResult sums = run(M::accum(cutoff, m), ref_l, &packed);
        result.final_sad = sums.side.sad;
        ++result.iterations;

        // 4. Solve and update (host).
        high_level_instr_ += M::kSolveInstr;
        const std::optional<double> step = M::step(sums.side, level, m);
        if (!step) break;  // degenerate level
        if (*step < params_.epsilon) {
          level_converged = true;
          break;
        }
        if (sums.side.sad > last_sad && it > 1) break;  // diverging
        last_sad = sums.side.sad;
        if (M::runaway(m, level, params_.max_expected_motion)) {
          m = M::rescale(result.motion, 1.0 / level.scale);  // reset level
          break;
        }
      }
      result.converged = result.converged && level_converged;
      result.motion = M::rescale(m, level.scale);
    }
    cutoff = std::max(32, cutoff / 2);
  }
  return result;
}

template GmeResult GmeEstimator::estimate(const Pyramid&, const Pyramid&,
                                          Translation);
template AffineGmeResult GmeEstimator::estimate(const Pyramid&, const Pyramid&,
                                                AffineMotion);
template PerspectiveGmeResult GmeEstimator::estimate(const Pyramid&,
                                                     const Pyramid&,
                                                     PerspectiveMotion);

}  // namespace ae::gme
