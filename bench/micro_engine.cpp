// Google-benchmark microbenchmarks of the engine simulator itself: cost of
// cycle-accurate vs. analytic execution (the reason the analytic mode
// exists for the call-heavy Table 3 experiment), and the frame content hash
// every served call pays to key its inputs and result.
#include <benchmark/benchmark.h>

#include <vector>

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
// UseRealTime: large frames hash their rows on the shared pool, whose share
// the main thread's CPU time misses.
BENCHMARK(BM_FrameContentHash)->UseRealTime();

// The serving path hashes frames it has not touched since they were written
// (fresh inputs, kernel results), so rotate over 16 CIF frames (13 MB), more
// than the cores' private caches hold at once.
void BM_FrameContentHashCold(benchmark::State& state) {
  constexpr std::size_t kFrames = 16;
  static const std::vector<img::Image> cifs = [] {
    std::vector<img::Image> out;
    for (std::size_t i = 0; i < kFrames; ++i)
      out.push_back(img::make_test_frame(Size{352, 288}, 1 + i));
    return out;
  }();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::frame_content_hash(cifs[next]));
    next = (next + 1) % kFrames;
  }
  state.SetBytesProcessed(state.iterations() * cifs[0].pixel_count() *
                          static_cast<i64>(sizeof(img::Pixel)));
}
BENCHMARK(BM_FrameContentHashCold)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
