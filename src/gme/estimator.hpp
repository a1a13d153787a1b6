// Hierarchical robust Global Motion Estimation (the paper's Table 3
// workload, after the MPEG-7 XM's GME used for mosaicing).
//
// One Gauss-Newton loop serves the translational, affine and perspective
// models.  Per frame pair: coarse-to-fine over the pyramids; per iteration
//   1. warp the current level by the motion estimate (host),
//   2. intra GradientPack call: pack Sobel gx/gy of the warped image into
//      its Alfa/Aux channels,
//   3. inter GmeAccum[Affine|Perspective] call against the reference level:
//      robust normal-equation sums + SAD through the side port,
//   4. solve the 2x2, 6x6 or 8x8 system and update the estimate (host).
// Every pixel pass is an AddressLib call — the call mix that produces the
// intra/inter counts of Table 3.
#pragma once

#include "addresslib/addresslib.hpp"
#include "gme/motion.hpp"
#include "gme/perspective.hpp"
#include "gme/pyramid.hpp"

namespace ae::gme {

struct GmeParams {
  int pyramid_levels = 3;
  int max_iterations_per_level = 12;
  double epsilon = 0.005;       ///< convergence threshold on |update| (px)
  i32 robust_threshold = 64;    ///< residual cutoff for the M-estimator
  /// Outer robust re-estimation passes; each pass halves the cutoff so
  /// outliers identified by the previous estimate stop voting (the XM's
  /// iteratively tightened robust estimation).
  int robust_passes = 3;
  /// Pre-smooth both pyramids' levels once (intra Convolve calls) before
  /// the Gauss-Newton iterations.
  bool smooth_levels = true;
  double max_expected_motion = 24.0;  ///< sanity bound on |motion| per pair
};

template <class Motion>
struct GmeResultOf {
  Motion motion;            ///< estimated cur -> ref warp
  int iterations = 0;       ///< Gauss-Newton iterations over all levels
  int calls = 0;            ///< AddressLib calls the estimate made
  u64 final_sad = 0;        ///< SAD at the accepted estimate
  bool converged = false;   ///< all levels hit epsilon before max iterations
};

using GmeResult = GmeResultOf<Translation>;
using AffineGmeResult = GmeResultOf<AffineMotion>;
using PerspectiveGmeResult = GmeResultOf<PerspectiveMotion>;

class GmeEstimator {
 public:
  GmeEstimator(alib::Backend& backend, GmeParams params = {});

  /// Estimates the `Motion` model between two prebuilt pyramids (reference,
  /// current).  Instantiated for Translation, AffineMotion and
  /// PerspectiveMotion.
  template <class Motion = Translation>
  GmeResultOf<Motion> estimate(const Pyramid& ref, const Pyramid& cur,
                               Motion initial = {});

  /// Host-side instruction count accumulated by warps and solves.
  u64 high_level_instr() const { return high_level_instr_; }

 private:
  alib::Backend* backend_;
  GmeParams params_;
  u64 high_level_instr_ = 0;
};

}  // namespace ae::gme
