// The frame-block store behind img::Image: the store's own rules on local
// instances, kernel outputs that skip the fill never showing a recycled
// block's stale bytes, and two exact steady-state gates — a planned farm
// program and a second GME estimate take no store misses once warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "addresslib/kernels/kernel_backend.hpp"
#include "addresslib/software_backend.hpp"
#include "common/rng.hpp"
#include "gme/estimator.hpp"
#include "gme/platform.hpp"
#include "gme/pyramid.hpp"
#include "image/frame_store.hpp"
#include "image/sequence.hpp"
#include "serve/farm.hpp"
#include "test_util.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define AE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define AE_TEST_ASAN 1
#endif
#endif

namespace ae {
namespace {

using img::FrameStore;
using img::FrameStoreStats;

constexpr std::size_t kCif = 352 * 288 * sizeof(img::Pixel);
constexpr std::size_t kQcif = 176 * 144 * sizeof(img::Pixel);

// Whether `p` is poisoned; a store block is exactly while the store holds
// it, in ASan builds.
#if defined(AE_TEST_ASAN)
constexpr bool kAsan = true;
bool poisoned(const void* p) { return __asan_address_is_poisoned(p) != 0; }
#else
constexpr bool kAsan = false;
bool poisoned(const void*) { return false; }
#endif

TEST(FrameStore, SameSizeBlocksAreReused) {
  FrameStore store;
  void* a = store.take(kCif);
  void* b = store.take(kQcif);
  store.give(a, kCif);
  store.give(b, kQcif);
  EXPECT_EQ(poisoned(a), kAsan);
  EXPECT_EQ(poisoned(b), kAsan);
  // Exact byte size picks the block, whatever order they were returned in.
  void* a2 = store.take(kCif);
  EXPECT_EQ(a2, a);
  EXPECT_FALSE(poisoned(a2));
  void* b2 = store.take(kQcif);
  EXPECT_EQ(b2, b);
  // Nothing of a third size is held.
  void* c = store.take(kQcif + 8);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  store.give(a2, kCif);
  store.give(b2, kQcif);
  store.give(c, kQcif + 8);
}

TEST(FrameStore, HeldBytesNeverExceedTheCap) {
  FrameStore store;
  Rng rng(0xF4A3E5ull);
  const std::size_t sizes[] = {FrameStore::kMinBlockBytes, kQcif, kCif,
                               std::size_t{3} << 20, FrameStore::kCapBytes};
  struct Held {
    void* ptr;
    std::size_t bytes;
  };
  std::vector<Held> out;
  u64 takes = 0;
  for (int step = 0; step < 2000; ++step) {
    if (out.size() < 6 && (out.empty() || rng.chance(0.5))) {
      const std::size_t bytes = sizes[rng.bounded(5)];
      out.push_back(Held{store.take(bytes), bytes});
      ++takes;
    } else {
      const std::size_t i = rng.bounded(static_cast<u32>(out.size()));
      store.give(out[i].ptr, out[i].bytes);
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(i));
    }
    const FrameStoreStats s = store.stats();
    ASSERT_LE(s.held_bytes, FrameStore::kCapBytes) << "step " << step;
    ASSERT_LE(s.held_high_water, FrameStore::kCapBytes) << "step " << step;
    ASSERT_EQ(s.hits + s.misses, takes) << "step " << step;
  }
  for (const Held& h : out) store.give(h.ptr, h.bytes);
  EXPECT_GT(store.stats().hits, 0u);
}

TEST(FrameStore, SmallAndOversizedBlocksBypassTheStore) {
  FrameStore store;
  std::vector<void*> frames;
  for (int i = 0; i < 5; ++i) frames.push_back(store.take(kCif));
  for (void* f : frames) store.give(f, kCif);
  const FrameStoreStats full = store.stats();
  EXPECT_EQ(full.held_bytes, 5 * kCif);

  const std::size_t small = FrameStore::kMinBlockBytes - sizeof(img::Pixel);
  const std::size_t large = FrameStore::kCapBytes + sizeof(img::Pixel);
  for (const std::size_t bytes : {small, large}) {
    void* block = store.take(bytes);
    std::memset(block, 0x5A, bytes);
    store.give(block, bytes);
    const FrameStoreStats s = store.stats();
    EXPECT_EQ(s.hits, full.hits) << bytes;
    EXPECT_EQ(s.misses, full.misses) << bytes;
    EXPECT_EQ(s.held_bytes, full.held_bytes) << bytes;
    EXPECT_EQ(s.held_high_water, full.held_high_water) << bytes;
  }
  // The oversized block evicted nothing: all five frames come back.
  for (int i = 0; i < 5; ++i) {
    void* f = store.take(kCif);
    EXPECT_NE(std::find(frames.begin(), frames.end(), f), frames.end());
    store.give(f, kCif);
  }
  EXPECT_EQ(store.stats().hits, full.hits + 5);
}

TEST(FrameStore, CountersAreExact) {
  FrameStore store;
  void* a = store.take(kCif);  // miss
  void* b = store.take(kCif);  // miss
  store.give(a, kCif);
  store.give(b, kCif);
  FrameStoreStats s = store.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.held_bytes, 2 * kCif);
  EXPECT_EQ(s.held_high_water, 2 * kCif);

  void* c = store.take(kCif);   // hit: b, the newest
  void* d = store.take(kQcif);  // miss
  EXPECT_EQ(c, b);
  s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.held_bytes, kCif);
  store.give(d, kQcif);
  store.give(c, kCif);
  s = store.stats();
  EXPECT_EQ(s.held_bytes, 2 * kCif + kQcif);
  EXPECT_EQ(s.held_high_water, 2 * kCif + kQcif);

  // A block that does not fit evicts the oldest held ones (a, then d) and
  // no more; the high-water mark stays at or under the cap.
  const std::size_t big = FrameStore::kCapBytes - kCif;
  void* e = store.take(big);  // miss
  store.give(e, big);
  s = store.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.held_bytes, kCif + big);
  EXPECT_EQ(s.held_high_water, FrameStore::kCapBytes);
  EXPECT_EQ(store.take(kCif), c);  // hit: c survived the eviction
  EXPECT_EQ(store.stats().hits, 2u);
  void* f = store.take(kQcif);  // miss: d was evicted
  EXPECT_EQ(store.stats().misses, 5u);
  store.give(c, kCif);
  store.give(f, kQcif);
}

// Frames allocated on one thread and freed on another, through Image and
// the process-wide store; every recycled frame must read exactly its fill.
TEST(FrameStore, ThreadsAllocateAndFreeAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  const FrameStoreStats before = img::frame_store_stats();
  std::mutex mu;
  std::deque<img::Image> handoff;
  std::vector<int> bad(kThreads, 0);
  const auto intact = [](const img::Image& im) {
    const img::Pixel fill = im.pixels().front();
    for (const img::Pixel& p : im.pixels())
      if (!(p == fill)) return false;
    return true;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const Size size = (r + t) % 3 == 0 ? img::formats::kCif
                                           : img::formats::kQcif;
        img::Image mine(size, img::Pixel::gray(static_cast<u8>(t * 40 + r)));
        if (!intact(mine)) ++bad[static_cast<std::size_t>(t)];
        img::Image theirs;
        {
          std::lock_guard<std::mutex> lock(mu);
          handoff.push_back(std::move(mine));
          if (handoff.size() > 2) {
            theirs = std::move(handoff.front());
            handoff.pop_front();
          }
        }
        if (!theirs.empty() && !intact(theirs))
          ++bad[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  handoff.clear();
  for (const int b : bad) EXPECT_EQ(b, 0);
  const FrameStoreStats after = img::frame_store_stats();
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            static_cast<u64>(kThreads * kRounds));
  EXPECT_GT(after.hits, before.hits);
  EXPECT_LE(after.held_high_water, FrameStore::kCapBytes);
}

// ---- kernel outputs skip the fill -----------------------------------------

/// Hands `n` blocks of `bytes`, each written 0xA5 throughout, to the
/// process-wide store, so the next takes of that size get stale bytes.
void stock_stale_blocks(std::size_t bytes, int n) {
  std::vector<void*> blocks;
  for (int i = 0; i < n; ++i) {
    blocks.push_back(FrameStore::global().take(bytes));
    std::memset(blocks.back(), 0xA5, bytes);
  }
  for (void* b : blocks) FrameStore::global().give(b, bytes);
}

TEST(FrameStoreStaleBlocks, KernelOutputsNeverShowStaleBytes) {
  const Size size = img::formats::kQcif;
  const std::size_t bytes = kQcif;
  const img::Image a = img::make_test_frame(size, 11);
  const img::Image b = img::make_test_frame(size, 12);

  std::vector<alib::Call> calls = test::representative_intra_calls();
  const std::vector<alib::Call> inter = test::representative_inter_calls();
  calls.insert(calls.end(), inter.begin(), inter.end());
  {
    alib::Call constant_border =
        alib::Call::make_intra(alib::PixelOp::Median, alib::Neighborhood::con8());
    constant_border.border = alib::BorderPolicy::Constant;
    calls.push_back(constant_border);
  }
  // Fused variants: a pointwise stage swept over each finished row.
  for (const alib::PixelOp base :
       {alib::PixelOp::Dilate, alib::PixelOp::AbsDiff}) {
    alib::Call fused =
        base == alib::PixelOp::Dilate
            ? alib::Call::make_intra(base, alib::Neighborhood::con8())
            : alib::Call::make_inter(base);
    alib::FusedStage stage;
    stage.op = alib::PixelOp::Threshold;
    stage.params.threshold = 100;
    fused.fused.push_back(stage);
    calls.push_back(fused);
  }
  Rng rng(0x57A1Eull);
  for (int i = 0; i < 4; ++i) calls.push_back(test::random_segment_call(rng, size));

  par::ThreadPool pool1{1};
  par::ThreadPool pool2{2};
  par::ThreadPool pool8{8};
  const alib::KernelBackend backends[] = {alib::KernelBackend({&pool1, 16}),
                                          alib::KernelBackend({&pool2, 3}),
                                          alib::KernelBackend({&pool8, 1})};
  for (const alib::Call& call : calls) {
    const img::Image* second = call.mode == alib::Mode::Inter ? &b : nullptr;
    const alib::CallResult ref = alib::execute_functional(call, a, second);
    for (const alib::KernelBackend& kernels : backends) {
      SCOPED_TRACE(call.describe() + " on " +
                   std::to_string(kernels.options().pool->thread_count()) +
                   " threads");
      stock_stale_blocks(bytes, 4);
      const u64 hits = img::frame_store_stats().hits;
      const alib::CallResult out = kernels.execute(call, a, second);
      // The output landed in a stale block.
      EXPECT_GT(img::frame_store_stats().hits, hits);
      test::expect_results_equal(ref, out);
    }
  }
}

// ---- steady state: no store misses once warm -------------------------------

analysis::CallProgram motion_program(Point intruder) {
  analysis::CallProgram p;
  const Size cif = img::formats::kCif;
  const i32 cur = p.add_input(cif, "cur");
  const i32 prev = p.add_input(cif, "prev");
  alib::OpParams mask_params;
  mask_params.threshold = 24;
  const i32 mask = p.add_call(
      alib::Call::make_inter(alib::PixelOp::DiffMask, ChannelMask::y(),
                             ChannelMask::y(), mask_params),
      cur, prev);
  const i32 eroded = p.add_call(
      alib::Call::make_intra(alib::PixelOp::Erode, alib::Neighborhood::con8()),
      mask);
  const i32 dilated = p.add_call(
      alib::Call::make_intra(alib::PixelOp::Dilate, alib::Neighborhood::con8()),
      eroded);
  alib::OpParams binarize;
  binarize.threshold = 127;
  const i32 binary = p.add_call(
      alib::Call::make_intra(alib::PixelOp::Threshold,
                             alib::Neighborhood::con0(), ChannelMask::y(),
                             ChannelMask::y(), binarize),
      dilated);
  alib::SegmentSpec spec;
  spec.seeds = {intruder};
  spec.luma_threshold = 0;
  p.mark_output(p.add_call(
      alib::Call::make_segment(alib::PixelOp::Copy, alib::Neighborhood::con0(),
                               spec, ChannelMask::y(),
                               ChannelMask::y().with(Channel::Alfa)),
      binary));
  return p;
}

TEST(FrameStoreSteadyState, PlannedFarmProgramsTakeNoMisses) {
  constexpr int kPairs = 24;
  constexpr i32 kRadius = 11;
  img::Image background = img::make_test_frame(img::formats::kCif, 0x5EC0);
  for (img::Pixel& p : background.pixels())
    p.y = static_cast<u8>(std::min<int>(p.y, 200));
  Rng rng(0x5EEDull);
  std::vector<analysis::CallProgram> programs;
  std::vector<std::vector<img::Image>> inputs;
  for (int k = 0; k < kPairs; ++k) {
    const Point before{rng.uniform(kRadius + 2, 352 - 60),
                       rng.uniform(kRadius + 2, 288 - 40)};
    const Point after{before.x + 3 * kRadius, before.y + kRadius};
    img::Image prev = background;
    img::draw_disk(prev, before, kRadius, img::Pixel::gray(255));
    img::Image cur = background;
    img::draw_disk(cur, after, kRadius, img::Pixel::gray(255));
    programs.push_back(motion_program(after));
    inputs.push_back({std::move(cur), std::move(prev)});
  }
  serve::FarmOptions options;
  options.shards = 2;
  options.optimize_on_submit = true;
  options.residency_plan = true;
  alib::SoftwareBackend software;
  std::vector<analysis::ProgramRunResult> refs;
  for (std::size_t k = 0; k < programs.size(); ++k)
    refs.push_back(analysis::run_program(programs[k], software, inputs[k]));
  serve::EngineFarm farm(options);
  // Warm-up: one pass over every pair, results dropped as a client would.
  for (std::size_t k = 0; k < programs.size(); ++k)
    (void)farm.execute_program(programs[k], inputs[k]);

  const FrameStoreStats warm = img::frame_store_stats();
  for (std::size_t k = 0; k < programs.size(); ++k) {
    const serve::ProgramExecution run =
        farm.execute_program(programs[k], inputs[k]);
    ASSERT_TRUE(run.run.outputs == refs[k].outputs) << "program " << k;
  }
  const FrameStoreStats after = img::frame_store_stats();
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_GT(after.hits, warm.hits);
}

TEST(FrameStoreSteadyState, SecondGmeEstimateTakesNoMisses) {
  const img::SyntheticSequence sequence(
      img::paper_sequence_params(img::PaperSequence::Singapore));
  gme::DualPlatformBackend backend;
  const gme::GmeParams params;
  gme::GmeEstimator estimator(backend, params);
  const gme::Pyramid ref =
      gme::build_pyramid(backend, sequence.frame(0), params.pyramid_levels);
  const gme::Pyramid cur =
      gme::build_pyramid(backend, sequence.frame(1), params.pyramid_levels);
  const gme::GmeResult first = estimator.estimate(ref, cur);

  const FrameStoreStats warm = img::frame_store_stats();
  const gme::GmeResult second = estimator.estimate(ref, cur);
  const FrameStoreStats after = img::frame_store_stats();
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_GT(after.hits, warm.hits);
  EXPECT_EQ(second.motion.dx, first.motion.dx);
  EXPECT_EQ(second.motion.dy, first.motion.dy);
  EXPECT_EQ(second.iterations, first.iterations);
}

}  // namespace
}  // namespace ae
