// Perspective GME tests: warp math, the 8x8 solver, the position-aware
// kernel and end-to-end recovery of synthetic perspective distortion.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "gme/estimator.hpp"
#include "image/compare.hpp"
#include "image/synth.hpp"
#include "test_util.hpp"

namespace ae::gme {
namespace {

TEST(PerspectiveMotion, IdentityByDefault) {
  const PerspectiveMotion m;
  double x = 0.0;
  double y = 0.0;
  ASSERT_TRUE(m.apply(17.0, 9.0, x, y));
  EXPECT_DOUBLE_EQ(x, 17.0);
  EXPECT_DOUBLE_EQ(y, 9.0);
  EXPECT_DOUBLE_EQ(m.deviation_from_translation(), 0.0);
}

TEST(PerspectiveMotion, AffineSliceMatchesAffine) {
  AffineMotion a = AffineMotion::from_translation({2.0, -1.0});
  a.a1 = 1.02;
  a.a4 = -0.01;
  const PerspectiveMotion p = PerspectiveMotion::from_affine(a);
  double px = 0.0;
  double py = 0.0;
  double ax = 0.0;
  double ay = 0.0;
  ASSERT_TRUE(p.apply(30.0, 40.0, px, py));
  a.apply(30.0, 40.0, ax, ay);
  EXPECT_DOUBLE_EQ(px, ax);
  EXPECT_DOUBLE_EQ(py, ay);
}

TEST(PerspectiveMotion, DegenerateDenominatorRejected) {
  PerspectiveMotion m;
  m.p[6] = -0.1;  // den = 1 - 0.1x: degenerate past x = 7.5
  double x = 0.0;
  double y = 0.0;
  EXPECT_TRUE(m.apply(2.0, 0.0, x, y));
  EXPECT_FALSE(m.apply(8.0, 0.0, x, y));
}

TEST(PerspectiveMotion, ScalingRoundTrips) {
  PerspectiveMotion m;
  m.p = {4.0, 1.01, 0.002, -2.0, -0.001, 0.99, 1e-4, -2e-4};
  const PerspectiveMotion back = m.scaled(0.5).scaled(2.0);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(back.p[i], m.p[i], 1e-12) << i;
}

TEST(WarpPerspective, MatchesAffineWarpOnAffineSlice) {
  const img::Image src = img::make_test_frame(Size{48, 32}, 3);
  AffineMotion a = AffineMotion::from_translation({1.5, 0.5});
  a.a2 = 0.01;
  const img::Image via_affine = warp_affine(src, a);
  const img::Image via_persp =
      warp_perspective(src, PerspectiveMotion::from_affine(a));
  EXPECT_EQ(img::count_differing(via_affine, via_persp, ChannelMask::yuv()),
            0);
}

TEST(PerspectiveKernel, AccumulatesJacobian) {
  alib::OpParams p;
  p.threshold = 100;
  p.warp_params = {0, 1, 0, 0, 0, 1, 0, 0};  // identity warp
  alib::SideAccum side;
  img::Pixel ref = img::Pixel::gray(110);
  img::Pixel warped = img::Pixel::gray(100);  // r = 10
  warped.alfa = static_cast<u16>(alib::kGradBias + 4);  // gx = 4
  warped.aux = static_cast<u16>(alib::kGradBias + 0);   // gy = 0
  alib::apply_inter(alib::PixelOp::GmePerspective, p, ref, warped,
                    Point{2, 3}, ChannelMask::y(), ChannelMask::y(), side);
  // At identity, D=1, X'=x=2, Y'=y=3, mix = gx*2 = 8.
  // g = [4, 8, 12, 0, 0, 0, -16, -24].
  EXPECT_DOUBLE_EQ(side.gme_persp[0], 16.0);   // g0*g0
  EXPECT_DOUBLE_EQ(side.gme_persp[1], 32.0);   // g0*g1
  EXPECT_DOUBLE_EQ(side.gme_persp[6], -64.0);  // g0*g6
  EXPECT_DOUBLE_EQ(side.gme_persp[36], 40.0);  // g0*r
  EXPECT_DOUBLE_EQ(side.gme_persp[44], 1.0);
}

TEST(PerspectiveKernel, DegeneratePixelSkipped) {
  alib::OpParams p;
  p.threshold = 100;
  p.warp_params = {0, 1, 0, 0, 0, 1, -0.1, 0};
  alib::SideAccum side;
  img::Pixel warped = img::Pixel::gray(90);
  warped.alfa = alib::kGradBias + 1;
  warped.aux = alib::kGradBias;
  alib::apply_inter(alib::PixelOp::GmePerspective, p, img::Pixel::gray(100),
                    warped, Point{20, 0}, ChannelMask::y(), ChannelMask::y(),
                    side);
  EXPECT_DOUBLE_EQ(side.gme_persp[44], 0.0);  // no vote
  EXPECT_EQ(side.sad, 10u);                   // but SAD still counted
}

TEST(SolvePerspective, RecoversKnownSolution) {
  const std::array<double, 8> truth{0.4,   0.002,  -0.001, -0.3,
                                    0.001, -0.002, 2e-5,   -1e-5};
  std::array<double, alib::kPerspectiveAccumTerms> sums{};
  Rng rng(9);
  for (int n = 0; n < 8000; ++n) {
    const double gx = rng.uniform(-300, 300);
    const double gy = rng.uniform(-300, 300);
    const double x = rng.uniform(0, 351);
    const double y = rng.uniform(0, 287);
    const double mix = gx * x + gy * y;  // identity warp: X'=x, Y'=y
    const std::array<double, 8> g{gx,      gx * x,  gx * y,  gy,
                                  gy * x,  gy * y,  -x * mix, -y * mix};
    double r = 0.0;
    for (std::size_t i = 0; i < 8; ++i) r += g[i] * truth[i] / 8.0;
    std::size_t k = 0;
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = i; j < 8; ++j) sums[k++] += g[i] * g[j];
    for (std::size_t i = 0; i < 8; ++i) sums[36 + i] += g[i] * r;
    sums[44] += 1.0;
  }
  std::array<double, 8> delta{};
  ASSERT_TRUE(solve_perspective_step(sums, delta));
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(delta[i], truth[i], 0.02 * std::abs(truth[i]) + 1e-7) << i;
}

TEST(SolvePerspective, RejectsDegenerate) {
  std::array<double, alib::kPerspectiveAccumTerms> sums{};
  std::array<double, 8> delta{};
  EXPECT_FALSE(solve_perspective_step(sums, delta));
}

/// Synthetic pair: a generated frame and its perspective-warped sibling.
struct PerspectivePair {
  img::Image ref;
  img::Image cur;
  PerspectiveMotion truth;
};

PerspectivePair make_pair(const PerspectiveMotion& truth) {
  PerspectivePair pair;
  pair.truth = truth;
  pair.cur = img::make_test_frame(Size{192, 160}, 81);
  // ref(x) = cur(W(x; truth)) so that the estimator, which searches for m
  // with warp(cur, m) == ref, should recover m == truth.
  pair.ref = warp_perspective(pair.cur, truth);
  return pair;
}

TEST(PerspectiveEstimator, RecoversPerspectiveDistortion) {
  PerspectiveMotion truth;
  truth.p = {1.5, 1.0, 0.0, -0.8, 0.0, 1.0, 4e-5, -3e-5};
  const PerspectivePair pair = make_pair(truth);
  alib::SoftwareBackend be;
  const Pyramid ref = build_pyramid(be, pair.ref, 3);
  const Pyramid cur = build_pyramid(be, pair.cur, 3);
  GmeEstimator est(be, {.smooth_levels = false});
  const PerspectiveGmeResult r = est.estimate<PerspectiveMotion>(ref, cur);
  EXPECT_NEAR(r.motion.p[0], truth.p[0], 0.3);
  EXPECT_NEAR(r.motion.p[3], truth.p[3], 0.3);
  EXPECT_NEAR(r.motion.p[6], truth.p[6], 2.5e-5);
  EXPECT_NEAR(r.motion.p[7], truth.p[7], 2.5e-5);
}

TEST(PerspectiveEstimator, BeatsAffineUnderPerspective) {
  PerspectiveMotion truth;
  truth.p = {0.5, 1.0, 0.0, 0.5, 0.0, 1.0, 8e-5, 5e-5};
  const PerspectivePair pair = make_pair(truth);
  alib::SoftwareBackend be;
  const Pyramid ref = build_pyramid(be, pair.ref, 3);
  const Pyramid cur = build_pyramid(be, pair.cur, 3);
  GmeEstimator affine(be, {.smooth_levels = false});
  GmeEstimator persp(be, {.smooth_levels = false});
  const u64 affine_sad = affine.estimate<AffineMotion>(ref, cur).final_sad;
  const u64 persp_sad = persp.estimate<PerspectiveMotion>(ref, cur).final_sad;
  EXPECT_LT(persp_sad, affine_sad);
}

TEST(PerspectiveEstimator, EngineBackendBitEqual) {
  const img::Image ref = img::make_test_frame(Size{96, 64}, 4);
  img::Image packed;
  {
    alib::SoftwareBackend sw;
    packed = sw.execute(alib::Call::make_intra(
                            alib::PixelOp::GradientPack,
                            alib::Neighborhood::con8(), ChannelMask::y(),
                            ChannelMask::alfa().with(Channel::Aux)),
                        img::make_test_frame(Size{96, 64}, 5))
                 .output;
  }
  alib::OpParams p;
  p.threshold = 64;
  p.warp_params = {0.3, 1.001, 0.0, -0.2, 0.0, 0.999, 1e-5, -1e-5};
  const alib::Call accum = alib::Call::make_inter(
      alib::PixelOp::GmePerspective, ChannelMask::y(), ChannelMask::y(), p);
  alib::SoftwareBackend sw;
  core::EngineBackend hw({}, core::EngineMode::CycleAccurate);
  const alib::CallResult rs = sw.execute(accum, ref, &packed);
  const alib::CallResult rh = hw.execute(accum, ref, &packed);
  test::expect_images_equal(rs.output, rh.output);
  EXPECT_EQ(rs.side.gme_persp, rh.side.gme_persp);  // bitwise doubles
}

}  // namespace
}  // namespace ae::gme
