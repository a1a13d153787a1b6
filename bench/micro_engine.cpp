// Google-benchmark microbenchmarks of the engine simulator itself: cost of
// cycle-accurate vs. analytic execution (the reason the analytic mode
// exists for the call-heavy Table 3 experiment), and the frame content hash
// every served call pays to key its inputs and result.
#include <benchmark/benchmark.h>

#include "core/core.hpp"
#include "image/synth.hpp"

namespace {

using namespace ae;

const img::Image& frame() {
  static const img::Image a = img::make_test_frame(Size{96, 64}, 1);
  return a;
}

alib::Call call() {
  alib::OpParams p;
  p.coeffs.assign(9, 1);
  p.shift = 3;
  return alib::Call::make_intra(alib::PixelOp::Convolve,
                                alib::Neighborhood::con8(), ChannelMask::y(),
                                ChannelMask::y(), p);
}

void BM_CycleAccurate(benchmark::State& state) {
  core::EngineBackend be({}, core::EngineMode::CycleAccurate);
  const alib::Call c = call();
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.execute(c, frame()));
  }
  state.SetItemsProcessed(state.iterations() * frame().pixel_count());
}
BENCHMARK(BM_CycleAccurate);

void BM_Analytic(benchmark::State& state) {
  core::EngineBackend be({}, core::EngineMode::Analytic);
  const alib::Call c = call();
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.execute(c, frame()));
  }
  state.SetItemsProcessed(state.iterations() * frame().pixel_count());
}
BENCHMARK(BM_Analytic);

void BM_CycleAccurateInter(benchmark::State& state) {
  core::EngineBackend be({}, core::EngineMode::CycleAccurate);
  static const img::Image b = img::make_test_frame(Size{96, 64}, 2);
  const alib::Call c = alib::Call::make_inter(alib::PixelOp::AbsDiff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.execute(c, frame(), &b));
  }
  state.SetItemsProcessed(state.iterations() * frame().pixel_count());
}
BENCHMARK(BM_CycleAccurateInter);

void BM_FrameContentHash(benchmark::State& state) {
  static const img::Image cif = img::make_test_frame(Size{352, 288}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::frame_content_hash(cif));
  }
  state.SetBytesProcessed(state.iterations() * cif.pixel_count() *
                          static_cast<i64>(sizeof(img::Pixel)));
}
BENCHMARK(BM_FrameContentHash);

}  // namespace

BENCHMARK_MAIN();
