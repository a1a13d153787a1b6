// Google-benchmark microbenchmarks of the application substrates: real
// wall clock of this reproduction's segmentation, GME and retrieval
// pipelines (not the modeled 2005 platforms).
#include <benchmark/benchmark.h>

#include "gme/affine.hpp"
#include "gme/estimator.hpp"
#include "gme/pyramid.hpp"
#include "image/sequence.hpp"
#include "image/synth.hpp"
#include "retrieval/database.hpp"
#include "segmentation/segmentation.hpp"
#include "segmentation/threshold_segmentation.hpp"

namespace {

using namespace ae;

const img::Image& qcif_frame() {
  static const img::Image f = img::make_test_frame(img::formats::kQcif, 7);
  return f;
}

void BM_RegionGrowingSegmentation(benchmark::State& state) {
  alib::SoftwareBackend be;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg::segment_image(be, qcif_frame()));
  }
  state.SetItemsProcessed(state.iterations() * qcif_frame().pixel_count());
}
BENCHMARK(BM_RegionGrowingSegmentation);

void BM_ThresholdSegmentation(benchmark::State& state) {
  alib::SoftwareBackend be;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg::threshold_segmentation(be, qcif_frame()));
  }
  state.SetItemsProcessed(state.iterations() * qcif_frame().pixel_count());
}
BENCHMARK(BM_ThresholdSegmentation);

void BM_GmeFramePair(benchmark::State& state) {
  img::SyntheticSequence::Params p;
  p.frame_size = Size{160, 128};
  p.frame_count = 2;
  p.seed = 3;
  p.script = img::MotionScript{2.0, 1.0, 0.0, 1.0, 0.0};
  const img::SyntheticSequence seq(p);
  alib::SoftwareBackend be;
  const gme::Pyramid ref = gme::build_pyramid(be, seq.frame(0), 3);
  const gme::Pyramid cur = gme::build_pyramid(be, seq.frame(1), 3);
  gme::GmeEstimator est(be);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate(ref, cur));
  }
}
BENCHMARK(BM_GmeFramePair);

// The estimator's host warps alone, on one CIF frame at a fractional motion
// (every pixel blends four taps).
const img::Image& cif_frame() {
  static const img::Image f = img::make_test_frame(img::formats::kCif, 5);
  return f;
}

void BM_GmeWarpTranslational(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gme::warp_translational(cif_frame(), gme::Translation{1.3, -0.7}));
  }
  state.SetItemsProcessed(state.iterations() * cif_frame().pixel_count());
}
BENCHMARK(BM_GmeWarpTranslational);

void BM_GmeWarpAffine(benchmark::State& state) {
  gme::AffineMotion m = gme::AffineMotion::from_translation({1.3, -0.7});
  m.a1 = 1.01;
  m.a2 = -0.02;
  m.a4 = 0.02;
  m.a5 = 0.99;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gme::warp_affine(cif_frame(), m));
  }
  state.SetItemsProcessed(state.iterations() * cif_frame().pixel_count());
}
BENCHMARK(BM_GmeWarpAffine);

void BM_RetrievalQuery(benchmark::State& state) {
  alib::SoftwareBackend be;
  ret::RegionDatabase db(be);
  for (u64 s = 1; s <= 6; ++s)
    db.add("img" + std::to_string(s),
           img::make_test_frame(Size{96, 64}, s));
  const img::Image probe = img::make_test_frame(Size{96, 64}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.query(probe, 3));
  }
}
BENCHMARK(BM_RetrievalQuery);

void BM_DescribeRegions(benchmark::State& state) {
  alib::SoftwareBackend be;
  const seg::SegmentationResult segmented =
      seg::segment_image(be, qcif_frame());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ret::describe_regions(segmented.labels));
  }
  state.SetItemsProcessed(state.iterations() * qcif_frame().pixel_count());
}
BENCHMARK(BM_DescribeRegions);

}  // namespace

BENCHMARK_MAIN();
