// EngineSession (smart-driver what-if) tests: frame residency, side-only
// readback elision, and the invariant that only timing changes.  The
// session computes pixels on the kernel backend; SessionPricingFuzz holds
// its modeled stats to the values the interpreter's traversal counts price.
#include <gtest/gtest.h>

#include "addresslib/functional.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "test_util.hpp"

namespace ae::core {
namespace {

alib::Call gradpack() {
  return alib::Call::make_intra(
      alib::PixelOp::GradientPack, alib::Neighborhood::con8(),
      ChannelMask::y(), ChannelMask::alfa().with(Channel::Aux));
}

alib::Call gme_accum() {
  alib::OpParams p;
  p.threshold = 64;
  return alib::Call::make_inter(alib::PixelOp::GmeAccum, ChannelMask::y(),
                                ChannelMask::y(), p);
}

TEST(Session, SideOnlyOpsClassified) {
  EXPECT_TRUE(is_side_only_op(alib::PixelOp::Sad));
  EXPECT_TRUE(is_side_only_op(alib::PixelOp::Histogram));
  EXPECT_TRUE(is_side_only_op(alib::PixelOp::GmeAccumAffine));
  EXPECT_FALSE(is_side_only_op(alib::PixelOp::AbsDiff));
  EXPECT_FALSE(is_side_only_op(alib::PixelOp::Erode));
}

TEST(Session, FunctionalResultsUnchanged) {
  EngineSession session;
  EngineBackend plain({}, EngineMode::Analytic);
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  const alib::Call call = alib::Call::make_inter(alib::PixelOp::AbsDiff);
  test::expect_images_equal(session.execute(call, a, &b).output,
                            plain.execute(call, a, &b).output);
  test::expect_results_equal(alib::execute_functional(call, a, &b),
                             session.execute(call, a, &b));
}

TEST(Session, RepeatedInputSkipsTransfer) {
  EngineSession session;
  const img::Image a = test::small_frame();
  const alib::Call call = alib::Call::make_intra(
      alib::PixelOp::MorphGradient, alib::Neighborhood::con8());
  const u64 first = session.execute(call, a).stats.cycles;
  const u64 second = session.execute(call, a).stats.cycles;
  EXPECT_LT(second, first);
  EXPECT_EQ(session.stats().inputs_transferred, 1);
  EXPECT_EQ(session.stats().inputs_reused, 1);
}

TEST(Session, ResultFeedsNextCallViaBoardCopy) {
  EngineSession session;
  const img::Image ref = test::small_frame(1);
  const img::Image warped = test::small_frame(2);
  // GradientPack produces packed; GmeAccum consumes it as frame B.
  const alib::CallResult packed = session.execute(gradpack(), warped);
  session.execute(gme_accum(), ref, &packed.output);
  EXPECT_EQ(session.stats().board_copies, 1);
  // warped + ref were transferred; packed was relocated on board.
  EXPECT_EQ(session.stats().inputs_transferred, 2);
  EXPECT_EQ(session.stats().inputs_reused, 1);
}

TEST(Session, SideOnlyReadbackElided) {
  EngineSession session;
  const img::Image a = test::small_frame(1);
  const img::Image b = test::small_frame(2);
  session.execute(gme_accum(), a, &b);
  EXPECT_EQ(session.stats().outputs_elided, 1);
  session.execute(alib::Call::make_inter(alib::PixelOp::AbsDiff), a, &b);
  EXPECT_EQ(session.stats().outputs_read_back, 1);
}

TEST(Session, InvalidateForgetsResidency) {
  EngineSession session;
  const img::Image a = test::small_frame();
  const alib::Call call = alib::Call::make_intra(
      alib::PixelOp::Erode, alib::Neighborhood::con4());
  session.execute(call, a);
  session.invalidate();
  session.execute(call, a);
  EXPECT_EQ(session.stats().inputs_transferred, 2);
  EXPECT_EQ(session.stats().inputs_reused, 0);
}

TEST(Session, GmeIterationTrafficShrinks) {
  // The canonical GME inner loop on the session vs. the plain driver: the
  // per-iteration board time must drop substantially.  CIF frames — on
  // tiny frames the per-call driver overhead dominates and residency
  // cannot help (that is itself part of the story).
  const img::Image ref = img::make_test_frame(img::formats::kCif, 1);
  EngineSession session;
  EngineBackend plain({}, EngineMode::Analytic);
  u64 session_cycles = 0;
  u64 plain_cycles = 0;
  for (int it = 0; it < 4; ++it) {
    const img::Image warped =
        img::make_test_frame(img::formats::kCif, 10 + static_cast<u64>(it));
    const alib::CallResult p1 = session.execute(gradpack(), warped);
    session_cycles += p1.stats.cycles;
    session_cycles += session.execute(gme_accum(), ref, &p1.output).stats.cycles;
    const alib::CallResult p2 = plain.execute(gradpack(), warped);
    plain_cycles += p2.stats.cycles;
    plain_cycles += plain.execute(gme_accum(), ref, &p2.output).stats.cycles;
  }
  EXPECT_LT(session_cycles, plain_cycles * 7 / 10);
}

TEST(Session, NameSaysSession) {
  EXPECT_NE(EngineSession().name().find("session"), std::string::npos);
}

// Keys a layer above already computed must change nothing: same results,
// same residency decisions, same cycles as a session hashing for itself.
TEST(Session, CarriedKeysMatchSelfHashedKeys) {
  EngineSession hashing;
  EngineSession keyed;
  const img::Image a = test::small_frame(1);
  const img::Image b = test::small_frame(2);
  const FrameKeys keys{frame_content_hash(a), frame_content_hash(b)};
  const alib::Call inter = alib::Call::make_inter(alib::PixelOp::AbsDiff);
  const alib::Call intra = alib::Call::make_intra(
      alib::PixelOp::Erode, alib::Neighborhood::con4());
  for (int round = 0; round < 2; ++round) {
    const alib::CallResult x = hashing.execute(inter, a, &b);
    const alib::CallResult y = keyed.execute(inter, a, &b, keys);
    test::expect_results_equal(x, y);
    EXPECT_EQ(x.stats.cycles, y.stats.cycles);
    EXPECT_EQ(keyed.last_output_key(), frame_content_hash(y.output));
    const alib::CallResult z = hashing.execute(intra, b);
    const alib::CallResult w = keyed.execute(intra, b, nullptr, {keys.b, 0});
    EXPECT_EQ(z.stats.cycles, w.stats.cycles);
  }
  EXPECT_EQ(hashing.stats().inputs_reused, keyed.stats().inputs_reused);
  EXPECT_EQ(hashing.stats().cycles, keyed.stats().cycles);
  EXPECT_GT(keyed.stats().inputs_reused, 0);
}

// ---- modeled stats priced from the interpreter (520-call fuzz recipe) ------

/// What the analytic path charges one call, priced from the interpreter's
/// traversal counts.  The residency outcome (inputs reused, relocated from
/// the result banks, readback elided) is taken from the session under test:
/// those decisions depend only on frame content, which the kernel path
/// reproduces bit-exactly.  What this pins is that the kernels' traversal
/// counts price exactly like the interpreter's.
struct Priced {
  u64 cycles = 0;
  u64 pci_cycles = 0;
  u64 loads = 0;
  u64 stores = 0;
  CallPhases phases;
};

/// `skipped` counts the inputs whose transfer was skipped (reused in an
/// input pair or relocated from the result banks); `relocated` those of
/// them that paid the bank-to-bank copy instead.
Priced price_from_interpreter(const EngineConfig& config,
                              const alib::Call& call, const img::Image& a,
                              const img::Image* b, i64 skipped, i64 relocated,
                              bool elided) {
  alib::SegmentRunInfo seg;
  (void)alib::execute_functional(call, a, b, seg);
  const EngineRunStats base = analytic_run_stats(
      config, call, a.size(), seg.processed_pixels, seg.criterion_tests);
  const AnalyticTiming timing =
      call.mode == alib::Mode::Segment
          ? analytic_segment_timing(config, call, a.size(),
                                    seg.processed_pixels,
                                    seg.criterion_tests)
          : analytic_streamed_timing(config, call, a.size());
  const u64 images = call.mode == alib::Mode::Inter ? 2 : 1;
  const u64 per_frame_in =
      (timing.input_busy_cycles + timing.input_overhead_cycles) / images;
  const u64 relocation = static_cast<u64>(a.pixel_count()) * 2;
  u64 cycles = base.cycles;
  u64 input = timing.input_busy_cycles + timing.input_overhead_cycles;
  for (i64 i = 0; i < skipped; ++i) {
    cycles -= std::min(cycles, per_frame_in);
    input -= std::min(input, per_frame_in);
  }
  for (i64 i = 0; i < relocated; ++i) {
    cycles += relocation;
    input += relocation;
  }
  if (elided)
    cycles -= std::min(
        cycles, timing.output_busy_cycles + timing.output_overhead_cycles);
  Priced p;
  p.cycles = cycles;
  p.pci_cycles =
      std::min(cycles, base.bus_busy_cycles + base.bus_overhead_cycles);
  p.loads = base.zbt_read_transactions;
  p.stores = base.zbt_write_transactions;
  p.phases.input_cycles =
      std::min(cycles, input + config.call_setup_overhead_cycles);
  p.phases.total_cycles = cycles;
  p.phases.post_input_cycles = cycles - p.phases.input_cycles;
  return p;
}

/// Runs one call through `session` and checks its modeled stats against
/// the interpreter-priced values.  Returns the inputs it reused.
i64 expect_priced_like_interpreter(EngineSession& session,
                                   const alib::Call& call, const img::Image& a,
                                   const img::Image* b) {
  const SessionStats before = session.stats();
  const alib::CallResult served = session.execute(call, a, b);
  const SessionStats& after = session.stats();
  const i64 relocated = after.board_copies - before.board_copies;
  const i64 reused = after.inputs_reused - before.inputs_reused - relocated;
  const Priced ref = price_from_interpreter(
      session.config(), call, a, b, reused + relocated, relocated,
      after.outputs_elided != before.outputs_elided);
  EXPECT_EQ(served.stats.cycles, ref.cycles);
  EXPECT_EQ(served.stats.pci_cycles, ref.pci_cycles);
  EXPECT_EQ(served.stats.loads, ref.loads);
  EXPECT_EQ(served.stats.stores, ref.stores);
  EXPECT_EQ(session.last_phases().input_cycles, ref.phases.input_cycles);
  EXPECT_EQ(session.last_phases().post_input_cycles,
            ref.phases.post_input_cycles);
  EXPECT_EQ(session.last_phases().total_cycles, ref.phases.total_cycles);
  EXPECT_EQ(after.cycles - before.cycles, ref.cycles);
  return reused + relocated;
}

class SessionPricingFuzz : public ::testing::TestWithParam<u64> {};

// The differential recipe's 8 seeds x 40 calls, one session per seed so
// each call is priced against the residency the earlier ones left.
TEST_P(SessionPricingFuzz, ModeledStatsMatchInterpreterPricing) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ull);
  EngineSession session;
  for (int i = 0; i < 40; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    const alib::Call call = test::random_any_call(rng, size, needs_b);
    const img::Image a = img::make_test_frame(size, rng.next_u64());
    const img::Image b = img::make_test_frame(size, rng.next_u64());
    SCOPED_TRACE("case " + std::to_string(i) + ": " + call.describe() +
                 " on " + to_string(size));
    expect_priced_like_interpreter(session, call, a, needs_b ? &b : nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionPricingFuzz,
                         ::testing::Range<u64>(1, 9));

// The farm recipe's 200 cases: frame content recurs, so inputs are reused
// and the residency history is part of every price.
TEST(SessionPricingFuzzFarmCorpus, ModeledStatsMatchInterpreterPricing) {
  Rng rng(0xD1FFu);
  EngineSession session;
  i64 reused = 0;
  for (int i = 0; i < 200; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    const alib::Call call = test::random_any_call(rng, size, needs_b);
    const img::Image a = img::make_test_frame(size, 1 + rng.bounded(6));
    const img::Image b = img::make_test_frame(size, 201 + rng.bounded(6));
    SCOPED_TRACE("case " + std::to_string(i) + ": " + call.describe() +
                 " on " + to_string(size));
    reused +=
        expect_priced_like_interpreter(session, call, a, needs_b ? &b : nullptr);
  }
  EXPECT_GT(reused, 0);
}

}  // namespace
}  // namespace ae::core
