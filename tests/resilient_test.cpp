// ResilientSession: under any seeded fault plan the driver must hand back
// results bit-exact with the software backend — CRC-verified, retried, or
// served from the software fallback — and every injected fault must show up
// in the detection counters, never as silent corruption.
#include <gtest/gtest.h>

#include <vector>

#include "addresslib/functional.hpp"
#include "core/core.hpp"
#include "core/session.hpp"
#include "test_util.hpp"

namespace ae::core {
namespace {

using alib::Call;
using alib::PixelOp;

alib::Call segment_call() {
  alib::SegmentSpec spec;
  spec.seeds = {Point{10, 10}, Point{40, 20}};
  spec.luma_threshold = 20;
  return Call::make_segment(PixelOp::Copy, alib::Neighborhood::con8(), spec,
                            ChannelMask::y(),
                            ChannelMask::y().with(Channel::Alfa));
}

void expect_matches_software(const alib::CallResult& got, const Call& call,
                             const img::Image& a, const img::Image* b) {
  const alib::CallResult ref = alib::execute_functional(call, a, b);
  test::expect_images_equal(ref.output, got.output, call.out_channels);
  EXPECT_EQ(ref.side.sad, got.side.sad);
  EXPECT_EQ(ref.side.histogram, got.side.histogram);
  EXPECT_EQ(ref.segments.size(), got.segments.size());
}

TEST(ResilientOptions, Validation) {
  ResilientOptions bad;
  bad.plan.dma_corrupt_rate = 1.5;
  EXPECT_THROW(ResilientSession({}, bad), InvalidArgument);
  bad = {};
  bad.transport.max_strip_retries = 0;
  EXPECT_THROW(ResilientSession({}, bad), InvalidArgument);
  bad = {};
  bad.backoff_factor = 0.5;
  EXPECT_THROW(ResilientSession({}, bad), InvalidArgument);
  bad = {};
  bad.breaker_threshold = 0;
  EXPECT_THROW(ResilientSession({}, bad), InvalidArgument);
}

TEST(Resilient, CleanPlanDelegatesAtZeroCost) {
  // With a clean plan the wrapper must not change results or timing: it
  // runs the same analytic fast path as a bare EngineSession.
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  ResilientSession res;
  EngineSession bare;
  for (const Call& call : test::representative_inter_calls()) {
    const alib::CallResult r = res.execute(call, a, &b);
    const alib::CallResult e = bare.execute(call, a, &b);
    test::expect_images_equal(e.output, r.output);
    EXPECT_EQ(e.stats.cycles, r.stats.cycles);
  }
  EXPECT_FALSE(res.injector().enabled());
  EXPECT_TRUE(res.healthy());
  EXPECT_EQ(res.stats().engine_calls, res.stats().calls);
  EXPECT_EQ(res.stats().fallback_calls, 0);
  EXPECT_EQ(res.stats().faults.total(), 0u);
  EXPECT_EQ(res.stats().cycles, bare.stats().cycles);
}

TEST(Resilient, DisabledInjectorKeepsSimulatorCyclesIdentical) {
  // A default-constructed (disabled) injector attached to the cycle
  // simulator must leave the cycle count bit-identical.
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::MorphGradient, alib::Neighborhood::con8());
  EngineRunStats plain;
  EngineRunStats attached;
  FaultInjector disabled;
  const alib::CallResult r1 = simulate_call({}, call, a, nullptr, &plain);
  const alib::CallResult r2 =
      simulate_call({}, call, a, nullptr, &attached, nullptr, &disabled);
  test::expect_images_equal(r1.output, r2.output);
  EXPECT_EQ(plain.cycles, attached.cycles);
  EXPECT_EQ(plain.interrupts, attached.interrupts);
  EXPECT_EQ(attached.strip_retries, 0u);
}

TEST(Resilient, SameSeedIsDeterministic) {
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::MorphGradient, alib::Neighborhood::con8());
  ResilientOptions options;
  options.plan.seed = 99;
  options.plan.dma_corrupt_rate = 1e-3;
  options.plan.zbt_flip_rate = 1e-3;
  ResilientSession first({}, options);
  ResilientSession second({}, options);
  for (int i = 0; i < 3; ++i) {
    const alib::CallResult r1 = first.execute(call, a);
    const alib::CallResult r2 = second.execute(call, a);
    EXPECT_EQ(r1.stats.cycles, r2.stats.cycles);
  }
  EXPECT_EQ(first.stats().faults.total(), second.stats().faults.total());
  EXPECT_EQ(first.stats().cycles, second.stats().cycles);
  EXPECT_GT(first.stats().faults.total(), 0u);
}

TEST(Resilient, ScriptedCorruptionIsDetectedAndRetried) {
  // One corrupted word in the very first strip: the strip CRC must catch
  // it, retransmit only that strip, and the result stays bit-exact.
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::Dilate, alib::Neighborhood::con4());
  ResilientOptions options;
  options.plan.script = {{FaultKind::DmaWordCorrupt, 0}};
  ResilientSession res({}, options);
  const alib::CallResult r = res.execute(call, a);
  expect_matches_software(r, call, a, nullptr);
  EXPECT_EQ(res.stats().faults.words_corrupted, 1u);
  EXPECT_EQ(res.stats().detections.strip_crc_mismatches, 1u);
  EXPECT_EQ(res.session().stats().strip_retries, 1u);
  EXPECT_EQ(res.stats().fallback_calls, 0);
  EXPECT_EQ(res.stats().call_retries, 0);
}

TEST(Resilient, ScriptedReadbackCorruptionIsReRead) {
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::Copy, alib::Neighborhood::con0());
  ResilientOptions options;
  options.plan.script = {{FaultKind::ReadbackCorrupt, 100}};
  ResilientSession res({}, options);
  const alib::CallResult r = res.execute(call, a);
  expect_matches_software(r, call, a, nullptr);
  EXPECT_EQ(res.stats().faults.readback_corrupted, 1u);
  EXPECT_EQ(res.stats().detections.readback_mismatches, 1u);
  EXPECT_EQ(res.session().stats().readback_retries, 1u);
}

TEST(Resilient, ResultBankFlipExhaustsReadsThenWholeCallRetrySucceeds) {
  // A bit flip inside a result bank is persistent: every re-read sees it
  // again, the readback budget exhausts, and only re-running the call
  // (fresh writes) clears it.  A 48x32 intra call stores 3072 input words
  // and 3072 result words (interleaved by the streaming overlap), so
  // opportunity 6100 is guaranteed to land in the result tail.
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::Copy, alib::Neighborhood::con0());
  ResilientOptions options;
  options.plan.script = {{FaultKind::ZbtBitFlip, 6100}};
  ResilientSession res({}, options);
  const alib::CallResult r = res.execute(call, a);
  expect_matches_software(r, call, a, nullptr);
  EXPECT_EQ(res.stats().faults.zbt_bits_flipped, 1u);
  EXPECT_EQ(res.stats().transport_failures, 1);
  EXPECT_EQ(res.stats().call_retries, 1);
  EXPECT_GT(res.stats().detections.readback_mismatches, 0u);
  EXPECT_GT(res.stats().engine_wasted_cycles, 0u);
  EXPECT_GT(res.stats().backoff_cycles, 0u);
  EXPECT_EQ(res.stats().fallback_calls, 0);
}

TEST(Resilient, LostInterruptTripsWatchdogThenRetrySucceeds) {
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::Erode, alib::Neighborhood::con4());
  ResilientOptions options;
  options.plan.script = {{FaultKind::LostInterrupt, 0}};
  ResilientSession res({}, options);
  const alib::CallResult r = res.execute(call, a);
  expect_matches_software(r, call, a, nullptr);
  EXPECT_EQ(res.stats().faults.interrupts_lost, 1u);
  EXPECT_EQ(res.stats().watchdog_trips, 1);
  EXPECT_EQ(res.stats().detections.watchdog_fires, 1u);
  EXPECT_EQ(res.stats().call_retries, 1);
  // The failed attempt is charged the full watchdog deadline.
  EXPECT_GE(res.stats().engine_wasted_cycles,
            res.options().transport.watchdog_deadline_cycles);
  EXPECT_GE(r.stats.cycles,
            res.options().transport.watchdog_deadline_cycles);
}

TEST(Resilient, BreakerOpensUnderPersistentFaultsAndRecovers) {
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::Copy, alib::Neighborhood::con0());
  ResilientOptions options;
  options.plan.interrupt_loss_rate = 1.0;  // the board is dead
  options.max_call_retries = 1;
  options.breaker_threshold = 2;
  options.breaker_cooldown_calls = 2;
  ResilientSession res({}, options);

  // Every engine attempt hangs; after `breaker_threshold` failed calls the
  // breaker opens.  Results still come back correct (software fallback).
  for (int i = 0; i < 2; ++i) {
    const alib::CallResult r = res.execute(call, a);
    expect_matches_software(r, call, a, nullptr);
  }
  EXPECT_EQ(res.breaker(), BreakerState::Open);
  EXPECT_EQ(res.stats().breaker_opens, 1);
  EXPECT_EQ(res.stats().fallback_calls, 2);
  EXPECT_FALSE(res.healthy());

  // While open, calls are served by software without touching the engine.
  const i64 attempts_before = res.stats().engine_attempts;
  res.execute(call, a);
  res.execute(call, a);
  EXPECT_EQ(res.stats().engine_attempts, attempts_before);
  EXPECT_EQ(res.stats().fallback_calls, 4);

  // The transport heals; the cooldown has elapsed, so the next call probes
  // the hardware (half-open) and closes the breaker again.
  res.injector().set_plan(FaultPlan{});
  const alib::CallResult healed = res.execute(call, a);
  expect_matches_software(healed, call, a, nullptr);
  EXPECT_EQ(res.breaker(), BreakerState::Closed);
  EXPECT_EQ(res.stats().fallback_calls, 4);
  EXPECT_GT(res.stats().engine_attempts, attempts_before);
}

TEST(Resilient, PropertySweepBitExactUnderRandomFaults) {
  // The headline property: for any seeded plan, every op in every
  // addressing mode comes back bit-exact with the software backend, and
  // injected faults are always detected somewhere.
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  for (const u64 seed : {11ull, 42ull}) {
    for (const double rate : {1e-4, 1e-3}) {
      ResilientOptions options;
      options.plan.seed = seed;
      options.plan.dma_corrupt_rate = rate;
      options.plan.dma_drop_rate = rate;
      options.plan.interrupt_loss_rate = rate;
      options.plan.zbt_flip_rate = rate;
      options.plan.readback_corrupt_rate = rate;
      ResilientSession res({}, options);
      SCOPED_TRACE("seed " + std::to_string(seed) + " rate " +
                   std::to_string(rate));
      for (const Call& call : test::representative_intra_calls()) {
        SCOPED_TRACE(call.describe());
        const alib::CallResult r = res.execute(call, a);
        const alib::CallResult ref = alib::execute_functional(call, a);
        test::expect_images_equal(ref.output, r.output, call.out_channels);
        EXPECT_EQ(ref.side.sad, r.side.sad);
        EXPECT_EQ(ref.side.histogram, r.side.histogram);
      }
      for (const Call& call : test::representative_inter_calls()) {
        SCOPED_TRACE(call.describe());
        const alib::CallResult r = res.execute(call, a, &b);
        const alib::CallResult ref = alib::execute_functional(call, a, &b);
        test::expect_images_equal(ref.output, r.output, call.out_channels);
        EXPECT_EQ(ref.side.sad, r.side.sad);
      }
      {
        const Call call = segment_call();
        const alib::CallResult r = res.execute(call, a);
        const alib::CallResult ref = alib::execute_functional(call, a);
        test::expect_images_equal(ref.output, r.output, call.out_channels);
        EXPECT_EQ(ref.segments.size(), r.segments.size());
      }
      // Faults happened and none went unnoticed: anything injected must
      // have produced at least one detection event, and the final answers
      // above were bit-exact regardless.
      if (res.stats().faults.total() > 0) {
        EXPECT_GT(res.stats().detections.total(), 0u);
      }
      if (rate >= 1e-3) {
        EXPECT_GT(res.stats().faults.total(), 0u);
      }
      EXPECT_EQ(res.stats().calls,
                res.stats().engine_calls + res.stats().fallback_calls);
    }
  }
}

}  // namespace
}  // namespace ae::core
