// Differential fuzzing: hundreds of seeded random calls across all four
// addressing schemes of the paper (interframe, intraframe, segment-based,
// segment-indexed side table), asserting bit-exactness of
//
//   * the specialized kernel backend against the functional interpreter
//     (KernelVsFunctional*, tier1 — this is the correctness gate of the
//     host hot path, across thread counts and band grains),
//   * the cycle-accurate engine simulator against the software backend
//     (single-engine differential, tier2), and
//   * a multi-shard EngineFarm fed by concurrent clients against a serial
//     interpreter sweep of the same workload (farm differential, tier2),
//     once with default options and once with every remaining FarmOptions
//     knob off its default — scheduling, affinity routing, spills,
//     back-pressure, admission and strip pipelining must be invisible in
//     results.  The farm computes pixels on the kernel backend, so the
//     reference is the interpreter, never the SoftwareBackend.
//
// The generator lives in test_util.hpp (random_any_call) so every suite
// fuzzes the same call space.  All cases are seeded/deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "addresslib/kernels/kernel_backend.hpp"
#include "analysis/planner.hpp"
#include "common/parallel.hpp"
#include "core/core.hpp"
#include "serve/farm.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;

// ---- kernel backend vs functional interpreter (tier1) ----------------------

/// Pools of 1, 2 and 8 lanes plus deliberately awkward band grains; the
/// kernel backend's contract is that none of this is visible in results.
struct KernelConfigs {
  par::ThreadPool pool1{1};
  par::ThreadPool pool2{2};
  par::ThreadPool pool8{8};

  template <typename Fn>
  void for_each(Fn&& fn) {
    fn(alib::KernelBackend({&pool1, 16}), "threads=1 grain=16");
    fn(alib::KernelBackend({&pool2, 3}), "threads=2 grain=3");
    fn(alib::KernelBackend({&pool8, 1}), "threads=8 grain=1");
  }
};

class KernelVsFunctional : public ::testing::TestWithParam<u64> {};

// 8 seeds x 40 calls = 320 random cases, each checked on three pool/grain
// combinations against the interpreter.  Segment calls (~20% of the mix)
// exercise the transparent fallback path.
TEST_P(KernelVsFunctional, RandomCallsAreBitExactAcrossThreadCounts) {
  Rng rng(GetParam() * 0xA24BAED4963EE407ull);
  KernelConfigs configs;
  for (int i = 0; i < 40; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    const Call call = test::random_any_call(rng, size, needs_b);
    const img::Image a = img::make_test_frame(size, rng.next_u64());
    const img::Image b = img::make_test_frame(size, rng.next_u64());
    const alib::CallResult ref =
        alib::execute_functional(call, a, needs_b ? &b : nullptr);
    configs.for_each([&](const alib::KernelBackend& kernels,
                         const char* config) {
      SCOPED_TRACE("case " + std::to_string(i) + " [" + config + "]: " +
                   call.describe() + " on " + to_string(size));
      test::expect_results_equal(
          ref, kernels.execute(call, a, needs_b ? &b : nullptr));
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelVsFunctional, ::testing::Range<u64>(1, 9));

// Degenerate frame shapes: single pixel, single row/column, odd strides —
// the interior/border split must collapse gracefully (often to an all-border
// frame) and still agree with the interpreter.
TEST(KernelVsFunctionalEdge, DegenerateFrameShapes) {
  static const Size kSizes[] = {{1, 1}, {7, 1}, {1, 9},
                                {33, 1}, {2, 2}, {17, 3}};
  Rng rng(0xED6Eu);
  KernelConfigs configs;
  for (const Size size : kSizes) {
    for (const Call& call : test::representative_intra_calls()) {
      const img::Image a = img::make_test_frame(size, rng.next_u64());
      const alib::CallResult ref = alib::execute_functional(call, a);
      configs.for_each([&](const alib::KernelBackend& kernels,
                           const char* config) {
        SCOPED_TRACE(std::string("[") + config + "] " + call.describe() +
                     " on " + to_string(size));
        test::expect_results_equal(ref, kernels.execute(call, a));
      });
    }
    for (const Call& call : test::representative_inter_calls()) {
      const img::Image a = img::make_test_frame(size, rng.next_u64());
      const img::Image b = img::make_test_frame(size, rng.next_u64());
      const alib::CallResult ref = alib::execute_functional(call, a, &b);
      configs.for_each([&](const alib::KernelBackend& kernels,
                           const char* config) {
        SCOPED_TRACE(std::string("[") + config + "] " + call.describe() +
                     " on " + to_string(size));
        test::expect_results_equal(ref, kernels.execute(call, a, &b));
      });
    }
  }
}

// Channel masks that include the 16-bit side channels: the random generator
// sticks to video masks (the engine suites share it), so the Alfa/Aux write
// paths of the kernels get explicit coverage here.
TEST(KernelVsFunctionalMasks, SideChannelMasksAreBitExact) {
  const ChannelMask all = ChannelMask::all();
  const ChannelMask side =
      ChannelMask{ChannelMask::alfa().bits() | ChannelMask::aux().bits()};
  const ChannelMask y_aux = ChannelMask::y().with(Channel::Aux);

  std::vector<Call> calls;
  for (const ChannelMask mask : {all, side, y_aux}) {
    calls.push_back(Call::make_inter(alib::PixelOp::Add, mask, mask));
    calls.push_back(Call::make_inter(alib::PixelOp::AbsDiff, mask, mask));
    calls.push_back(Call::make_inter(alib::PixelOp::BitXor, mask, mask));
    calls.push_back(Call::make_inter(alib::PixelOp::Sad, mask, mask));
    {
      alib::OpParams p;
      p.threshold = 500;  // above the 8-bit range: discriminates 16-bit taps
      calls.push_back(
          Call::make_inter(alib::PixelOp::DiffMask, mask, mask, p));
    }
    {
      alib::OpParams p;
      p.scale_num = 5;
      p.shift = 1;
      p.bias = -7;
      calls.push_back(Call::make_intra(alib::PixelOp::Scale,
                                       alib::Neighborhood::con0(), mask, mask,
                                       p));
    }
    {
      alib::OpParams p;
      p.threshold = 300;
      calls.push_back(Call::make_intra(alib::PixelOp::Threshold,
                                       alib::Neighborhood::con0(), mask, mask,
                                       p));
    }
    calls.push_back(Call::make_intra(alib::PixelOp::Median,
                                     alib::Neighborhood::con8(), mask, mask));
    calls.push_back(Call::make_intra(alib::PixelOp::Dilate,
                                     alib::Neighborhood::con4(), mask, mask));
  }

  Rng rng(0x51DEu);
  KernelConfigs configs;
  for (const Call& call : calls) {
    const Size size{33, 17};
    const img::Image a = img::make_test_frame(size, rng.next_u64());
    const img::Image b = img::make_test_frame(size, rng.next_u64());
    const img::Image* pb = call.mode == alib::Mode::Inter ? &b : nullptr;
    const alib::CallResult ref = alib::execute_functional(call, a, pb);
    configs.for_each([&](const alib::KernelBackend& kernels,
                         const char* config) {
      SCOPED_TRACE(std::string("[") + config + "] " + call.describe());
      test::expect_results_equal(ref, kernels.execute(call, a, pb));
    });
  }
}

// Adversarial flood masks (test_util.hpp): content chosen to stress the
// traversal structurally — checkerboard claim-tie storms, a spiral corridor
// at maximal geodesic depth, an all-seed frame, a label barrier with a
// blocked seed.  Beyond results, the traversal accounting (processed
// pixels, criterion tests) must also match: the engine cost models price
// from those counters.
TEST(KernelVsFunctionalAdversarial, FloodMasksAreBitExact) {
  KernelConfigs configs;
  for (const test::AdversarialFloodCase& c : test::adversarial_flood_cases()) {
    alib::SegmentRunInfo ref_info;
    const alib::CallResult ref =
        alib::execute_functional(c.call, c.frame, nullptr, ref_info);
    configs.for_each([&](const alib::KernelBackend& kernels,
                         const char* config) {
      SCOPED_TRACE(std::string(c.name) + " [" + config + "]: " +
                   c.call.describe());
      alib::SegmentRunInfo info;
      test::expect_results_equal(ref,
                                 kernels.execute(c.call, c.frame, nullptr,
                                                 info));
      EXPECT_EQ(ref_info.processed_pixels, info.processed_pixels);
      EXPECT_EQ(ref_info.criterion_tests, info.criterion_tests);
    });
  }
}

// The GmeAccum row kernel: |r| into Y, i64 normal-equation sums and the SAD
// through the side port.  Thresholds span "no inliers but exact matches" to
// "every pixel votes"; b's packed gradients are set to the bias extremes
// (most negative, zero and most positive gradient, and mixed), plus a real
// GradientPack output as the estimator feeds it.  The position-dependent
// GmeAccumAffine and the binary64 GmePerspective stay on the interpreter.
TEST(KernelVsFunctionalGme, AccumulatorIsBitExactAcrossThreadCounts) {
  const auto call_for = [](alib::PixelOp op) {
    alib::OpParams p;
    p.warp_params = {0, 1, 0, 0, 0, 1, 0, 0};
    return Call::make_inter(op, ChannelMask::y(), ChannelMask::y(), p);
  };
  EXPECT_TRUE(alib::KernelBackend::supports(call_for(alib::PixelOp::GmeAccum)));
  EXPECT_FALSE(
      alib::KernelBackend::supports(call_for(alib::PixelOp::GmeAccumAffine)));
  EXPECT_FALSE(
      alib::KernelBackend::supports(call_for(alib::PixelOp::GmePerspective)));

  const Call gradpack = Call::make_intra(
      alib::PixelOp::GradientPack, alib::Neighborhood::con8(),
      ChannelMask::y(), ChannelMask::alfa().with(Channel::Aux));
  constexpr auto kBias = static_cast<u16>(alib::kGradBias);
  const std::pair<u16, u16> kSideFills[] = {
      {0, 0}, {kBias, kBias}, {0xFFFF, 0xFFFF}, {0, 0xFFFF}};
  static const Size kSizes[] = {{1, 1}, {7, 1}, {1, 9}, {17, 3}, {352, 288}};
  Rng rng(0x6AEu);
  KernelConfigs configs;
  for (const Size size : kSizes) {
    const img::Image a = img::make_test_frame(size, rng.next_u64());
    std::vector<img::Image> bs;
    bs.push_back(alib::execute_functional(
                     gradpack, img::make_test_frame(size, rng.next_u64()))
                     .output);
    for (const auto& [alfa, aux] : kSideFills) {
      img::Image b = img::make_test_frame(size, rng.next_u64());
      b.fill_channel(Channel::Alfa, alfa);
      b.fill_channel(Channel::Aux, aux);
      bs.push_back(std::move(b));
    }
    for (const i32 threshold : {0, 1, 64, 255}) {
      alib::OpParams p;
      p.threshold = threshold;
      const Call call = Call::make_inter(alib::PixelOp::GmeAccum,
                                         ChannelMask::y(), ChannelMask::y(), p);
      for (std::size_t bi = 0; bi < bs.size(); ++bi) {
        const alib::CallResult ref = alib::execute_functional(call, a, &bs[bi]);
        configs.for_each([&](const alib::KernelBackend& kernels,
                             const char* config) {
          SCOPED_TRACE(std::string("[") + config + "] " + call.describe() +
                       " b#" + std::to_string(bi) + " on " + to_string(size));
          test::expect_results_equal(ref, kernels.execute(call, a, &bs[bi]));
        });
      }
    }
  }
}

// ---- engine / farm differentials (tier2) -----------------------------------

class DifferentialSimVsSoftware : public ::testing::TestWithParam<u64> {};

// 8 seeds x 40 calls = 320 differential cases against the cycle simulator.
TEST_P(DifferentialSimVsSoftware, RandomCallsAreBitExact) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ull);
  alib::SoftwareBackend sw;
  core::EngineBackend cycle({}, core::EngineMode::CycleAccurate);

  int segment_cases = 0;
  for (int i = 0; i < 40; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    const Call call = test::random_any_call(rng, size, needs_b);
    segment_cases += call.mode == alib::Mode::Segment ? 1 : 0;
    const img::Image a = img::make_test_frame(size, rng.next_u64());
    const img::Image b = img::make_test_frame(size, rng.next_u64());
    SCOPED_TRACE("case " + std::to_string(i) + ": " + call.describe() +
                 " on " + to_string(size));

    const alib::CallResult ref = sw.execute(call, a, needs_b ? &b : nullptr);
    const alib::CallResult out =
        cycle.execute(call, a, needs_b ? &b : nullptr);
    test::expect_results_equal(ref, out);
  }
  // The ~20% segment share of random_any_call actually materializes, so
  // the segment-indexed table is fuzzed every seed, not by accident.
  EXPECT_GT(segment_cases, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSimVsSoftware,
                         ::testing::Range<u64>(1, 9));

// 200 differential cases against a farm fed by 4 client threads, under two
// configurations: the defaults on 4 shards, and 3 shards with every other
// remaining FarmOptions knob moved off its default.
TEST(DifferentialFarmVsSerial, ConcurrentFarmMatchesSerialSweep) {
  struct Item {
    Call call;
    img::Image a;
    img::Image b;
    bool needs_b = false;
    alib::CallResult ref;
  };

  Rng rng(0xD1FFu);
  std::deque<Item> items;
  for (int i = 0; i < 200; ++i) {
    Item item;
    const Size size = test::random_frame_size(rng);
    item.call = test::random_any_call(rng, size, item.needs_b);
    // A handful of repeating seeds: the same frame content recurs across
    // the workload, so affinity routing and residency reuse are active
    // parts of the system under test, not idle code paths.
    item.a = img::make_test_frame(size, 1 + rng.bounded(6));
    item.b = img::make_test_frame(size, 201 + rng.bounded(6));
    item.ref = alib::execute_functional(item.call, item.a,
                                        item.needs_b ? &item.b : nullptr);
    items.push_back(std::move(item));
  }

  serve::FarmOptions defaults;
  defaults.shards = 4;
  serve::FarmOptions tuned;
  tuned.shards = 3;
  tuned.max_batch = 1;
  tuned.affinity_spill_depth = 1;
  tuned.queue_capacity = 4;
  tuned.resilient.session.validate_before_execute = true;
  // Admission runs on every submission and must reject none: the budget
  // sits above every call's content-free planned upper bound, which bounds
  // the content-aware envelope the farm computes.
  analysis::PlanOptions plan_options;
  plan_options.config = tuned.config;
  u64 budget = 0;
  for (const Item& item : items) {
    const analysis::CostEnvelope envelope =
        analysis::plan_call(item.call, item.a.size(), plan_options);
    budget = std::max(budget, envelope.cycles.upper);
  }
  tuned.admission_budget_cycles = budget + 1;

  for (const serve::FarmOptions& options :
       std::array<serve::FarmOptions, 2>{defaults, tuned}) {
    SCOPED_TRACE("farm with " + std::to_string(options.shards) + " shards");
    serve::EngineFarm farm(options);

    constexpr std::size_t kClients = 4;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&farm, &items, c] {
        std::vector<std::pair<std::size_t, std::future<alib::CallResult>>>
            futures;
        for (std::size_t i = c; i < items.size(); i += kClients)
          futures.emplace_back(i,
                               farm.submit(items[i].call, items[i].a,
                                           items[i].needs_b ? &items[i].b
                                                            : nullptr));
        for (auto& [index, future] : futures) {
          SCOPED_TRACE("case " + std::to_string(index) + ": " +
                       items[index].call.describe());
          test::expect_results_equal(items[index].ref, future.get());
        }
      });
    }
    for (auto& t : clients) t.join();

    farm.drain();
    const serve::FarmStats stats = farm.stats();
    EXPECT_EQ(stats.completed, 200);
    EXPECT_EQ(stats.admission_rejected, 0);
    // The farm actually farmed: more than one shard served calls.
    int active_shards = 0;
    for (const serve::ShardStats& s : stats.shards)
      active_shards += s.calls > 0 ? 1 : 0;
    EXPECT_GT(active_shards, 1);
  }
}

}  // namespace
}  // namespace ae
