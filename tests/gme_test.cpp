// GME component tests: warping, pyramids, the estimator's motion recovery
// against scripted ground truth, and the mosaic compositor.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gme/affine.hpp"
#include "gme/estimator.hpp"
#include "gme/mosaic.hpp"
#include "gme/perspective.hpp"
#include "gme/platform.hpp"
#include "gme/pyramid.hpp"
#include "image/compare.hpp"
#include "image/sequence.hpp"
#include "image/synth.hpp"

namespace ae::gme {
namespace {

img::SyntheticSequence make_sequence(double dx, double dy, int frames = 4,
                                     Size size = Size{160, 128}) {
  img::SyntheticSequence::Params p;
  p.name = "test";
  p.frame_size = size;
  p.frame_count = frames;
  p.seed = 42;
  p.script = img::MotionScript{dx, dy, 0.0, 1.0, 0.0};
  return img::SyntheticSequence(p);
}

// The scalar warp loop the banded sampler replaced, kept verbatim as the
// oracle: four clamped() taps and the same double lerps per pixel.  `map`
// returns false where the warp degenerates (the perspective fallback).
// Coordinates must stay inside the i32 range, or the oracle's own cast is
// undefined.
template <typename Map>
img::Image scalar_warp(const img::Image& src, Map map) {
  img::Image out(src.size());
  for (i32 y = 0; y < src.height(); ++y) {
    for (i32 x = 0; x < src.width(); ++x) {
      double sx = 0.0;
      double sy = 0.0;
      if (!map(x, y, sx, sy)) {
        out.ref(x, y) = src.clamped(x, y);
        continue;
      }
      const double fx = std::floor(sx);
      const double fy = std::floor(sy);
      const auto x0 = static_cast<i32>(fx);
      const auto y0 = static_cast<i32>(fy);
      const double wx = sx - fx;
      const double wy = sy - fy;
      const img::Pixel& p00 = src.clamped(x0, y0);
      const img::Pixel& p10 = src.clamped(x0 + 1, y0);
      const img::Pixel& p01 = src.clamped(x0, y0 + 1);
      const img::Pixel& p11 = src.clamped(x0 + 1, y0 + 1);
      auto lerp2 = [&](u8 a, u8 b, u8 c, u8 d) {
        const double top = a + (b - a) * wx;
        const double bot = c + (d - c) * wx;
        return static_cast<u8>(std::lround(top + (bot - top) * wy));
      };
      img::Pixel& o = out.ref(x, y);
      o.y = lerp2(p00.y, p10.y, p01.y, p11.y);
      o.u = lerp2(p00.u, p10.u, p01.u, p11.u);
      o.v = lerp2(p00.v, p10.v, p01.v, p11.v);
      o.alfa = p00.alfa;
      o.aux = p00.aux;
    }
  }
  return out;
}

img::Image scalar_warp_translational(const img::Image& src, Translation t) {
  return scalar_warp(src, [&](i32 x, i32 y, double& sx, double& sy) {
    sx = x + t.dx;
    sy = y + t.dy;
    return true;
  });
}

img::Image scalar_warp_affine(const img::Image& src, const AffineMotion& m) {
  return scalar_warp(src, [&](i32 x, i32 y, double& sx, double& sy) {
    m.apply(x, y, sx, sy);
    return true;
  });
}

img::Image scalar_warp_perspective(const img::Image& src,
                                   const PerspectiveMotion& m) {
  return scalar_warp(src, [&](i32 x, i32 y, double& sx, double& sy) {
    return m.apply(x, y, sx, sy);
  });
}

// {37, 33}: an odd width, and one row past a whole number of 16-row bands.
const Size kWarpSizes[] = {{1, 1}, {7, 5}, {33, 17}, {37, 33}, {352, 288}};

// Integer, half-pixel, negative, fractional and beyond-the-frame offsets;
// {0.75, -2.5} clamps both taps of the first three rows onto row 0.
const Translation kWarpOffsets[] = {
    {0.0, 0.0},    {3.0, 2.0},      {0.5, 0.5},     {-0.5, 1.5},
    {-2.0, -7.0},  {1.25, -3.75},   {-0.3, 0.7},    {400.0, -0.5},
    {-1e6, 2.5},   {0.5, 1e6},      {-1.0, -1.0},   {1e-9, -1e-9},
    {0.75, -2.5}};

TEST(WarpOracle, TranslationalMatchesScalarWarp) {
  for (const Size size : kWarpSizes) {
    const img::Image src = img::make_test_frame(size, 11);
    for (const Translation t : kWarpOffsets) {
      SCOPED_TRACE(to_string(size) + " by " + to_string(t));
      EXPECT_TRUE(warp_translational(src, t) ==
                  scalar_warp_translational(src, t));
    }
  }
}

TEST(WarpOracle, AffineMatchesScalarWarp) {
  for (const Size size : kWarpSizes) {
    const img::Image src = img::make_test_frame(size, 12);
    for (const Translation t : kWarpOffsets) {
      AffineMotion m = AffineMotion::from_translation(t);
      m.a1 = 1.02;
      m.a2 = -0.03;
      m.a4 = 0.01;
      m.a5 = 0.97;
      SCOPED_TRACE(to_string(size) + " by " + to_string(m));
      EXPECT_TRUE(warp_affine(src, m) == scalar_warp_affine(src, m));
      const AffineMotion pure = AffineMotion::from_translation(t);
      EXPECT_TRUE(warp_affine(src, pure) == scalar_warp_affine(src, pure));
    }
  }
}

TEST(WarpOracle, PerspectiveMatchesScalarWarpIncludingDegeneratePixels) {
  for (const Size size : kWarpSizes) {
    const img::Image src = img::make_test_frame(size, 13);
    PerspectiveMotion m;
    m.p = {1.5, 0.98, 0.02, -2.25, -0.01, 1.01, 1e-4, -2e-4};
    EXPECT_TRUE(warp_perspective(src, m) == scalar_warp_perspective(src, m));
    // The denominator 1 + c0 x + c1 y drops below 0.25 past x = 30 (and to
    // zero at x = 40): those pixels take the clamped-copy fallback.
    PerspectiveMotion degenerate;
    degenerate.p = {0.5, 1.0, 0.0, 0.0, 0.0, 1.0, -0.025, 0.0};
    SCOPED_TRACE(to_string(size) + " by " + to_string(degenerate));
    const img::Image out = warp_perspective(src, degenerate);
    EXPECT_TRUE(out == scalar_warp_perspective(src, degenerate));
    if (size.width > 40) {
      EXPECT_TRUE(out.at(40, 0) == src.at(40, 0));
    }
  }
}

// Source coordinates past the i32 range (or not numbers at all) used to
// reach an undefined float-to-int cast.  A non-finite translation is
// rejected; huge finite ones replicate the border, as any offset past the
// edge does.
TEST(WarpRange, NonFiniteTranslationIsRejected) {
  const img::Image src = img::make_test_frame(Size{8, 6}, 14);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(warp_translational(src, {nan, 0.0}), InvalidArgument);
  EXPECT_THROW(warp_translational(src, {0.0, inf}), InvalidArgument);
  EXPECT_THROW(warp_translational(src, {-inf, nan}), InvalidArgument);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid pyr = build_pyramid(be, img::make_test_frame({64, 64}, 1), 2);
  EXPECT_THROW(est.estimate(pyr, pyr, Translation{nan, 0.0}), InvalidArgument);
}

TEST(WarpRange, FarOutOfRangeCoordinatesReplicateTheBorder) {
  const img::Image src = img::make_test_frame(Size{8, 6}, 15);
  const img::Image right = warp_translational(src, {3e9, 0.0});
  const img::Image up = warp_translational(src, {0.0, -3e9});
  for (i32 y = 0; y < src.height(); ++y)
    for (i32 x = 0; x < src.width(); ++x) {
      EXPECT_TRUE(right.at(x, y) == src.at(src.width() - 1, y));
      EXPECT_TRUE(up.at(x, y) == src.at(x, 0));
    }
  AffineMotion far;
  far.a1 = 1e12;  // every row's x coordinate leaves the i32 range
  const img::Image affine = warp_affine(src, far);
  for (i32 y = 0; y < src.height(); ++y)
    EXPECT_TRUE(affine.at(src.width() - 1, y) == src.at(src.width() - 1, y));
  PerspectiveMotion huge;
  huge.p[0] = -1e300;
  EXPECT_TRUE(warp_perspective(src, huge).at(3, 2) == src.at(0, 2));
}

TEST(Warp, IntegerShiftIsExact) {
  const img::Image src = img::make_test_frame(Size{32, 24}, 1);
  const img::Image warped = warp_translational(src, Translation{3.0, 2.0});
  // warped(x, y) == src(x+3, y+2) in the interior.
  for (i32 y = 0; y < 20; ++y)
    for (i32 x = 0; x < 28; ++x)
      ASSERT_EQ(warped.at(x, y).y, src.at(x + 3, y + 2).y);
}

TEST(Warp, ZeroShiftIsIdentityOnVideoChannels) {
  const img::Image src = img::make_test_frame(Size{16, 16}, 2);
  const img::Image warped = warp_translational(src, Translation{});
  EXPECT_EQ(img::count_differing(src, warped, ChannelMask::yuv()), 0);
}

TEST(Warp, HalfPixelInterpolates) {
  img::Image src(Size{4, 1});
  src.at(0, 0).y = 0;
  src.at(1, 0).y = 100;
  src.at(2, 0).y = 200;
  const img::Image warped = warp_translational(src, Translation{0.5, 0.0});
  EXPECT_EQ(warped.at(0, 0).y, 50);
  EXPECT_EQ(warped.at(1, 0).y, 150);
  // Blends of exactly k + 0.5 with k even round away from zero, as
  // std::lround does: a round-half-even or truncating round gives k.
  img::Image ties(Size{2, 2});
  ties.at(0, 0).y = 2;
  ties.at(1, 0).y = 3;
  ties.at(0, 1).y = 3;
  ties.at(0, 0).u = 4;
  ties.at(1, 0).u = 5;
  ties.at(0, 1).u = 5;
  const img::Image across = warp_translational(ties, Translation{0.5, 0.0});
  EXPECT_EQ(across.at(0, 0).y, 3);
  EXPECT_EQ(across.at(0, 0).u, 5);
  const img::Image down = warp_translational(ties, Translation{0.0, 0.5});
  EXPECT_EQ(down.at(0, 0).y, 3);
  EXPECT_EQ(down.at(0, 0).u, 5);
  const img::Image affine =
      warp_affine(ties, AffineMotion::from_translation({0.5, 0.0}));
  EXPECT_EQ(affine.at(0, 0).y, 3);
  EXPECT_EQ(affine.at(0, 0).u, 5);
}

TEST(Warp, BorderReplicates) {
  img::Image src(Size{4, 4}, img::Pixel::gray(7));
  const img::Image warped = warp_translational(src, Translation{100.0, 0.0});
  EXPECT_EQ(warped.at(0, 0).y, 7);
}

TEST(Decimate, AveragesQuads) {
  img::Image src(Size{4, 2});
  src.at(0, 0).y = 10;
  src.at(1, 0).y = 20;
  src.at(0, 1).y = 30;
  src.at(1, 1).y = 40;
  const img::Image half = decimate2(src);
  EXPECT_EQ(half.size(), (Size{2, 1}));
  EXPECT_EQ(half.at(0, 0).y, 25);
}

TEST(Decimate, RejectsTooSmall) {
  EXPECT_THROW(decimate2(img::Image(Size{1, 4})), InvalidArgument);
}

TEST(PyramidTest, LevelsHalveAndCountCalls) {
  alib::SoftwareBackend be;
  const img::Image frame = img::make_test_frame(Size{128, 64}, 3);
  u64 hl = 0;
  const Pyramid pyr = build_pyramid(be, frame, 3, &hl);
  ASSERT_EQ(pyr.level_count(), 3);
  EXPECT_EQ(pyr.level(1).size(), (Size{64, 32}));
  EXPECT_EQ(pyr.level(2).size(), (Size{32, 16}));
  EXPECT_GT(hl, 0u);
}

TEST(PyramidTest, StopsBeforeDegenerateLevels) {
  alib::SoftwareBackend be;
  const img::Image frame = img::make_test_frame(Size{32, 20}, 3);
  const Pyramid pyr = build_pyramid(be, frame, 6);
  EXPECT_LT(pyr.level_count(), 6);
  EXPECT_GE(pyr.levels.back().height(), 8);
}

TEST(Estimator, RecoversScriptedTranslation) {
  const auto seq = make_sequence(2.0, -1.5);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult r = est.estimate(ref, cur);
  // Estimated motion should negate the camera pan (see table3.cpp).
  EXPECT_NEAR(r.motion.dx, -2.0, 0.35);
  EXPECT_NEAR(r.motion.dy, 1.5, 0.35);
  EXPECT_GT(r.iterations, 0);
}

TEST(Estimator, LargeMotionNeedsThePyramid) {
  const auto seq = make_sequence(9.0, 0.0);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult r = est.estimate(ref, cur);
  EXPECT_NEAR(r.motion.dx, -9.0, 1.0);
}

TEST(Estimator, WarmStartConverges) {
  const auto seq = make_sequence(3.0, 3.0);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult cold = est.estimate(ref, cur);
  const GmeResult warm = est.estimate(ref, cur, cold.motion);
  EXPECT_LE(std::abs(warm.motion.dx - cold.motion.dx), 0.5);
}

TEST(Estimator, StaticSceneGivesZeroMotion) {
  const auto seq = make_sequence(0.0, 0.0);
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid ref = build_pyramid(be, seq.frame(0), 3);
  const Pyramid cur = build_pyramid(be, seq.frame(1), 3);
  const GmeResult r = est.estimate(ref, cur);
  EXPECT_LT(r.motion.magnitude(), 0.1);
}

TEST(Estimator, ParamsValidated) {
  alib::SoftwareBackend be;
  GmeParams bad;
  bad.pyramid_levels = 0;
  EXPECT_THROW(GmeEstimator(be, bad), InvalidArgument);
  bad = GmeParams{};
  bad.robust_threshold = 0;
  EXPECT_THROW(GmeEstimator(be, bad), InvalidArgument);
}

TEST(Estimator, MismatchedPyramidsRejected) {
  alib::SoftwareBackend be;
  GmeEstimator est(be);
  const Pyramid deep = build_pyramid(be, img::make_test_frame({64, 64}, 1), 3);
  const Pyramid flat = build_pyramid(be, img::make_test_frame({64, 64}, 1), 2);
  EXPECT_THROW(est.estimate(deep, flat), InvalidArgument);
}

// Bit-exact pins of each motion model's estimate on one pair: a test frame
// and its warp by a small perspective truth.  Every parameter, the
// iteration count, SAD, convergence flag and host instruction count, and
// the board time and call mix a DualPlatformBackend priced, at 1 and 3
// levels.  Any change to the Gauss-Newton loop's arithmetic, exits or call
// order moves one of them.
struct GoldenRow {
  int levels;
  std::vector<double> motion;
  int iterations;
  u64 final_sad;
  bool converged;
  u64 high_level_instr;
  double board_seconds;
  i64 intra_calls;
  i64 inter_calls;
};

std::vector<double> params_of(const Translation& t) { return {t.dx, t.dy}; }
std::vector<double> params_of(const AffineMotion& m) {
  return {m.a0, m.a1, m.a2, m.a3, m.a4, m.a5};
}
std::vector<double> params_of(const PerspectiveMotion& m) {
  return {m.p.begin(), m.p.end()};
}

template <class Motion>
void expect_golden(const std::vector<GoldenRow>& rows, bool smooth_levels,
                   Motion initial = {}) {
  PerspectiveMotion truth;
  truth.p = {0.7, 1.0, 0.004, -0.45, -0.003, 1.0, 2e-5, -1.5e-5};
  const img::Image cur_frame = img::make_test_frame(Size{192, 160}, 29);
  const img::Image ref_frame = warp_perspective(cur_frame, truth);
  for (const GoldenRow& want : rows) {
    SCOPED_TRACE("levels " + std::to_string(want.levels));
    alib::SoftwareBackend sw;
    const Pyramid ref = build_pyramid(sw, ref_frame, want.levels);
    const Pyramid cur = build_pyramid(sw, cur_frame, want.levels);
    DualPlatformBackend be;
    GmeEstimator est(be, {.pyramid_levels = want.levels,
                          .smooth_levels = smooth_levels});
    const GmeResultOf<Motion> r = est.estimate(ref, cur, initial);
    EXPECT_EQ(params_of(r.motion), want.motion);
    EXPECT_EQ(r.iterations, want.iterations);
    EXPECT_EQ(r.final_sad, want.final_sad);
    EXPECT_EQ(r.converged, want.converged);
    EXPECT_EQ(est.high_level_instr(), want.high_level_instr);
    EXPECT_EQ(be.engine_board_seconds(), want.board_seconds);
    EXPECT_EQ(be.intra_calls(), want.intra_calls);
    EXPECT_EQ(be.inter_calls(), want.inter_calls);
    EXPECT_EQ(r.calls, be.intra_calls() + be.inter_calls());
  }
}

TEST(EstimatorGolden, TranslationalSmoothed) {
  expect_golden<Translation>(
      {{1, {0x1.e21e17c868311p-1, -0x1.8e8c3dbc164b4p-1},
        8, 60738u, false, 4916800u, 0x1.c8156992f379bp-4, 10, 8},
       {3, {0x1.e20464f2b57a7p-1, -0x1.8e541cc33396fp-1},
        33, 60795u, false, 9222600u, 0x1.4eb6f93976f31p-2, 39, 33}},
      true);
}

TEST(EstimatorGolden, TranslationalRaw) {
  expect_golden<Translation>(
      {{1, {0x1.f21a2dc540bfdp-1, -0x1.93649df95f79p-1},
        16, 104135u, false, 9833600u, 0x1.9a1f90435ae93p-3, 16, 16},
       {3, {0x1.f0c24a2e6d021p-1, -0x1.9c96eb84ebddbp-1},
        36, 105771u, false, 12218400u, 0x1.6731a727f113ep-2, 36, 36}},
      false);
}

TEST(EstimatorGolden, TranslationalWarmStart) {
  expect_golden<Translation>(
      {{1, {0x1.e212b955cd68ep-1, -0x1.8e7e565abcfb7p-1},
        8, 60736u, true, 4916800u, 0x1.c8156992f379bp-4, 10, 8},
       {3, {0x1.e202f8b412a24p-1, -0x1.8e5594b59a0c3p-1},
        32, 60795u, false, 9184000u, 0x1.47df417e2885bp-2, 38, 32}},
      true, Translation{-0.5, 0.25});
}

TEST(EstimatorGolden, AffineRaw) {
  expect_golden<AffineMotion>(
      {{1,
        {0x1.7ab1446cb4137p-1, 0x1.fec63815982d1p-1, 0x1.59bbdc65e9874p-8,
         -0x1.837f343a7f85ep-2, -0x1.3805fd48a41f7p-8, 0x1.0028c5d3b39f6p+0},
        16, 16948u, false, 12789120u, 0x1.9a1f90435ae93p-3, 16, 16},
       {3,
        {0x1.7e2aa6f1a08afp-1, 0x1.fec02933fe53ep-1, 0x1.58ee0e5d1714bp-8,
         -0x1.31b99a65bc6a5p+0, 0x1.16cb7a069167fp-8, 0x1.0130daf6f17dap+0},
        57, 181390u, false, 30435480u, 0x1.313547bfdfbfap-1, 57, 57}},
      false);
}

TEST(EstimatorGolden, PerspectiveRaw) {
  expect_golden<PerspectiveMotion>(
      {{1,
        {0x1.66003ecded787p-1, 0x1.0000c3790900fp+0, 0x1.067b8a42db881p-8,
         -0x1.cd5f72728a55bp-2, -0x1.88e9d2c552d83p-9, 0x1.0000cd968247p+0,
         0x1.5024cf7581229p-16, -0x1.f58f7a6f59964p-17},
        18, 39u, false, 17716320u, 0x1.cd63824bc6466p-3, 18, 18},
       {3,
        {0x1.8e22dc17b7808p-1, 0x1.ff4e19381f608p-1, 0x1.d60d3d0119f55p-9,
         -0x1.4d123eb3aa08ap-1, -0x1.133357cf455f6p-10, 0x1.000195d41c443p+0,
         0x1.dc6614dee31bp-17, -0x1.39c32acff2e6dp-16},
        57, 77667u, false, 38406960u, 0x1.3431ea2345f49p-1, 57, 57}},
      false);
}

TEST(MosaicTest, SingleFrameRoundTrip) {
  const img::Image f = img::make_test_frame(Size{32, 24}, 5);
  Mosaic m(Size{40, 30}, Point{4, 3});
  m.add_frame(f, Translation{});
  const img::Image out = m.render();
  EXPECT_EQ(out.at(4 + 10, 3 + 10).y, f.at(10, 10).y);
  EXPECT_EQ(out.at(0, 0).y, 128);  // uncovered = mid gray
  EXPECT_NEAR(m.coverage(), 32.0 * 24 / (40.0 * 30), 1e-9);
}

TEST(MosaicTest, OverlappingFramesAverage) {
  img::Image bright(Size{8, 8}, img::Pixel::gray(200));
  img::Image dark(Size{8, 8}, img::Pixel::gray(100));
  Mosaic m(Size{8, 8}, Point{0, 0});
  m.add_frame(bright, Translation{});
  m.add_frame(dark, Translation{});
  EXPECT_EQ(m.render().at(4, 4).y, 150);
  EXPECT_EQ(m.frames_added(), 2);
}

TEST(MosaicTest, PlacementShiftsContent) {
  img::Image f(Size{4, 4}, img::Pixel::gray(42));
  Mosaic m(Size{16, 16}, Point{0, 0});
  m.add_frame(f, Translation{10.0, 10.0});
  EXPECT_EQ(m.render().at(11, 11).y, 42);
  EXPECT_EQ(m.render().at(2, 2).y, 128);
}

TEST(MosaicTest, RequiredCanvasCoversSweep) {
  std::vector<Translation> motions{{0, 0}, {20, 0}, {40, -10}};
  Point origin{};
  const Size canvas = Mosaic::required_canvas(Size{32, 24}, motions, origin, 2);
  EXPECT_GE(canvas.width, 32 + 40 + 4);
  EXPECT_GE(canvas.height, 24 + 10 + 4);
  EXPECT_GE(origin.y, 10);
}

TEST(DualPlatform, CountsCallsByMode) {
  DualPlatformBackend be;
  const img::Image a = img::make_test_frame(Size{32, 32}, 1);
  const img::Image b = img::make_test_frame(Size{32, 32}, 2);
  be.execute(alib::Call::make_inter(alib::PixelOp::AbsDiff), a, &b);
  be.execute(alib::Call::make_intra(alib::PixelOp::MorphGradient,
                                    alib::Neighborhood::con8()),
             a);
  EXPECT_EQ(be.inter_calls(), 1);
  EXPECT_EQ(be.intra_calls(), 1);
  EXPECT_GT(be.software_platform_seconds(), 0.0);
  EXPECT_GT(be.engine_platform_seconds(), 0.0);
}

// Both platforms are priced from one execution's traversal counts, so a
// call's board time is exactly what the analytic engine backend reports —
// segment calls included, whose criterion tests come from the kernels
// rather than from a connectivity bound.
TEST(DualPlatform, BoardTimeMatchesAnalyticEngine) {
  const img::Image a = img::make_test_frame(Size{48, 32}, 1);
  const img::Image b = img::make_test_frame(Size{48, 32}, 2);
  alib::SegmentSpec spec;
  spec.seeds = {{4, 4}, {40, 20}};
  const std::vector<std::pair<alib::Call, const img::Image*>> cases{
      {alib::Call::make_intra(alib::PixelOp::MorphGradient,
                              alib::Neighborhood::con8()),
       nullptr},
      {alib::Call::make_inter(alib::PixelOp::AbsDiff), &b},
      {alib::Call::make_segment(alib::PixelOp::Median,
                                alib::Neighborhood::con8(), spec,
                                ChannelMask::y(),
                                ChannelMask::y().with(Channel::Alfa)),
       nullptr}};
  for (const auto& [call, second] : cases) {
    SCOPED_TRACE(call.describe());
    DualPlatformBackend dual;
    dual.execute(call, a, second);
    core::EngineBackend engine({}, core::EngineMode::Analytic);
    EXPECT_EQ(dual.engine_board_seconds(),
              engine.execute(call, a, second).stats.model_seconds);
  }
}

TEST(DualPlatform, HighLevelPricedOnBothCpus) {
  DualPlatformBackend be;
  const double sw0 = be.software_platform_seconds();
  const double hw0 = be.engine_platform_seconds();
  be.add_high_level(1'000'000'000);
  EXPECT_GT(be.software_platform_seconds(), sw0);
  EXPECT_GT(be.engine_platform_seconds(), hw0);
  // The P4 3 GHz host prices the same instructions cheaper than the PM.
  EXPECT_LT(be.engine_platform_seconds() - hw0,
            be.software_platform_seconds() - sw0);
}

TEST(MotionStrings, ToString) {
  EXPECT_NE(to_string(Translation{1.5, -2.0}).find("dx=1.5"),
            std::string::npos);
}

}  // namespace
}  // namespace ae::gme
