// aeopt — the envelope-proven program rewriter (analysis/optimizer.hpp).
//
// Tier1 (everything not matching *Fuzz*): per-rewrite positive AND negative
// cases, the dominance tiers pinned numerically against plan_program, the
// RewriteLog JSON schema, the fuse= text round trip, the fused-stage
// verifier rules, and the farm's optimize_on_submit wiring.  Every applied
// rewrite is held to bit-exactness on both the kernel backend and the
// cycle-accurate engine simulator.
//
// Tier2 (OptimizerFuzz*): the differential rewrite-fuzz harness — the full
// 520-program corpus (8x40 differential seeds + 200 farm cases) replayed
// through aeopt as one-call programs, plus fusion-biased multi-call
// programs, asserting bit-exact outputs, zero aeverify regressions, and the
// RewriteLog's claimed cycle delta containing the measured modeled delta.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "addresslib/kernels/kernel_backend.hpp"
#include "analysis/lints.hpp"
#include "analysis/optimizer.hpp"
#include "analysis/program_text.hpp"
#include "analysis/rules.hpp"
#include "common/parallel.hpp"
#include "core/core.hpp"
#include "serve/farm.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::Neighborhood;
using alib::PixelOp;
using analysis::CallProgram;
using analysis::kNoFrame;
using analysis::OptimizeResult;
using analysis::ProgramPlan;
using analysis::ProgramRunResult;
using analysis::RewriteLog;
using analysis::RewriteRecord;
using test::expect_runs_equal;
using test::external_inputs;

constexpr Size kFrame{48, 32};
constexpr u64 kFrameWords = 2 * 48 * 32;  // one frame as PCI words

Call intra_con8() {
  return Call::make_intra(PixelOp::GradientMag, Neighborhood::con8());
}

Call pointwise_threshold(i32 threshold = 10) {
  alib::OpParams p;
  p.threshold = threshold;
  return Call::make_intra(PixelOp::Threshold, Neighborhood::con0(),
                          ChannelMask::y(), ChannelMask::y(), p);
}

Call pointwise_scale() {
  alib::OpParams p;
  p.scale_num = 3;
  p.shift = 1;
  p.bias = 7;
  return Call::make_intra(PixelOp::Scale, Neighborhood::con0(),
                          ChannelMask::y(), ChannelMask::y(), p);
}

/// External inputs for `program` in frame-declaration order.
/// Runs original and rewritten on `backend` and asserts the equivalence
/// contract.  With `check_claims` (engine backends only — CallStats::cycles
/// is zero everywhere else) the claimed cycle envelope must also contain the
/// measured modeled delta: plan soundness carries through every rewrite.
void expect_bit_exact(const CallProgram& original, const OptimizeResult& opt,
                      alib::Backend& backend, Rng& rng,
                      bool check_claims = false) {
  const std::vector<img::Image> inputs = external_inputs(original, rng);
  const ProgramRunResult ref =
      analysis::run_program(original, backend, inputs);
  const ProgramRunResult out =
      analysis::run_program(opt.program, backend, inputs);
  expect_runs_equal(ref, out);
  if (!check_claims) return;
  const i64 measured = static_cast<i64>(ref.stats.cycles) -
                       static_cast<i64>(out.stats.cycles);
  EXPECT_GE(measured, static_cast<i64>(opt.log.claimed_cycles_bound.lower))
      << "claimed envelope does not contain the measured saving";
  EXPECT_LE(measured, static_cast<i64>(opt.log.claimed_cycles_bound.upper))
      << "claimed envelope does not contain the measured saving";
}

/// run_program wants the Backend interface; KernelBackend exposes the same
/// execute shape without deriving from it, so the tests adapt it.
class KernelBackendAdapter : public alib::Backend {
 public:
  explicit KernelBackendAdapter(alib::KernelOptions options)
      : kernels_(options) {}
  std::string name() const override { return "kernels"; }
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override {
    return kernels_.execute(call, a, b);
  }

 private:
  alib::KernelBackend kernels_;
};

u64 transferred_words(const ProgramPlan& plan) {
  u64 words = 0;
  for (const analysis::CallPlan& cp : plan.calls)
    for (const analysis::InputPlan& ip : cp.inputs)
      if (ip.kind == analysis::TransferKind::Transferred) words += ip.words;
  return words;
}

// ---- fuse (AEW303) ---------------------------------------------------------

TEST(Fuse, FoldsAPointwiseConsumerBitExactly) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 grad = program.add_call(intra_con8(), a);
  program.mark_output(program.add_call(pointwise_threshold(40), grad));

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_TRUE(opt.changed);
  ASSERT_EQ(opt.log.records.size(), 1u);
  const RewriteRecord& r = opt.log.records[0];
  EXPECT_EQ(r.rule, analysis::rules::kFusablePointwisePair);
  EXPECT_EQ(r.kind, "fuse");
  EXPECT_EQ(r.calls, (std::vector<i32>{0, 1}));
  ASSERT_EQ(opt.program.calls().size(), 1u);
  ASSERT_EQ(opt.program.calls()[0].call.fused.size(), 1u);
  EXPECT_EQ(opt.program.calls()[0].call.fused[0].op, PixelOp::Threshold);
  EXPECT_EQ(analysis::verify_program(opt.program).error_count(), 0u);

  Rng rng(0xF05Eu);
  par::ThreadPool pool(2);
  KernelBackendAdapter kernels({&pool, 4});
  expect_bit_exact(program, opt, kernels, rng);
  core::EngineBackend engine({}, core::EngineMode::CycleAccurate);
  expect_bit_exact(program, opt, engine, rng, /*check_claims=*/true);
}

TEST(Fuse, AWholeChainCollapsesToOneCall) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  i32 f = program.add_call(intra_con8(), a);
  f = program.add_call(pointwise_scale(), f);
  f = program.add_call(pointwise_threshold(90), f);
  f = program.add_call(Call::make_intra(PixelOp::Copy, Neighborhood::con0()),
                       f);
  program.mark_output(f);

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_EQ(opt.program.calls().size(), 1u);
  EXPECT_EQ(opt.program.calls()[0].call.fused.size(), 3u);
  EXPECT_EQ(opt.log.records.size(), 3u);
  // The surviving result keeps the final consumer's frame name.
  EXPECT_EQ(opt.program.frame_name(opt.program.calls()[0].output),
            program.frame_name(f));

  Rng rng(0xC4A17u);
  par::ThreadPool pool(2);
  KernelBackendAdapter kernels({&pool, 4});
  expect_bit_exact(program, opt, kernels, rng);
}

TEST(Fuse, RefusesAHostCollectedIntermediate) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 grad = program.add_call(intra_con8(), a);
  program.mark_output(grad);  // the host reads the intermediate
  program.mark_output(program.add_call(pointwise_threshold(), grad));

  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
  EXPECT_EQ(opt.program.calls().size(), 2u);
}

TEST(Fuse, RefusesAMultiConsumerIntermediate) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 grad = program.add_call(intra_con8(), a);
  program.mark_output(program.add_call(pointwise_threshold(10), grad));
  program.mark_output(program.add_call(pointwise_threshold(20), grad));

  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
}

// Satellite regression of the AEW303 soundness fix: a segment producer is
// NOT fusable — its output contains wholesale-copied unprocessed pixels a
// fused stage would never touch, and segment ids land in Alfa only after
// the kernel ran.  The lint and the rewrite share one predicate, so both
// must refuse.
TEST(Fuse, RefusesASegmentProducer) {
  CallProgram program;
  const i32 frame = program.add_input(kFrame, "frame");
  alib::SegmentSpec spec;
  spec.seeds = {Point{4, 4}, Point{30, 20}};
  spec.luma_threshold = 18;
  const i32 seg = program.add_call(
      Call::make_segment(PixelOp::Copy, Neighborhood::con4(), spec,
                         ChannelMask::y(),
                         ChannelMask::y().with(Channel::Alfa)),
      frame);
  program.mark_output(program.add_call(pointwise_threshold(), seg));

  EXPECT_FALSE(analysis::fusable_pointwise_pair(program, 0));
  EXPECT_FALSE(
      analysis::lint_program(program)
          .mentions(analysis::rules::kFusablePointwisePair));
  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
  EXPECT_EQ(opt.program.calls().size(), 2u);
}

// Second soundness regression: a pointwise call that references the
// producer's result only through its ignored second input is not a real
// dataflow edge — fusing on it would compute from the wrong frame.
TEST(Fuse, RefusesAnIgnoredSecondInputReference) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 grad = program.add_call(intra_con8(), a);
  // Reads `a`; `grad` only appears as the ignored second input.
  program.mark_output(program.add_call(pointwise_threshold(), a, grad));

  EXPECT_FALSE(analysis::fusable_pointwise_pair(program, 0));
  EXPECT_FALSE(
      analysis::lint_program(program)
          .mentions(analysis::rules::kFusablePointwisePair));
}

// ---- dead-elim (AEW301) ----------------------------------------------------

TEST(DeadElim, DropsAnUnreadResult) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  program.add_call(intra_con8(), a);  // never read, host never collects
  program.mark_output(program.add_call(pointwise_threshold(), a));

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_TRUE(opt.changed);
  ASSERT_EQ(opt.log.records.size(), 1u);
  EXPECT_EQ(opt.log.records[0].rule, analysis::rules::kDeadStoreOverwrite);
  EXPECT_EQ(opt.log.records[0].kind, "dead-elim");
  ASSERT_EQ(opt.program.calls().size(), 1u);
  EXPECT_EQ(opt.program.calls()[0].call.op, PixelOp::Threshold);

  Rng rng(0xDEADu);
  par::ThreadPool pool(2);
  KernelBackendAdapter kernels({&pool, 4});
  expect_bit_exact(program, opt, kernels, rng);
  core::EngineBackend engine({}, core::EngineMode::CycleAccurate);
  expect_bit_exact(program, opt, engine, rng, /*check_claims=*/true);
}

TEST(DeadElim, KeepsCallsWithSidePortResults) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  // Result frame dead, but the histogram accumulator is host-observable.
  program.add_call(
      Call::make_intra(PixelOp::Histogram, Neighborhood::con0()), a);
  program.mark_output(program.add_call(pointwise_threshold(), a));

  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
  EXPECT_EQ(opt.program.calls().size(), 2u);
}

TEST(DeadElim, KeepsSegmentCalls) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  alib::SegmentSpec spec;
  spec.seeds = {Point{4, 4}};
  spec.luma_threshold = 20;
  program.add_call(
      Call::make_segment(PixelOp::Copy, Neighborhood::con4(), spec,
                         ChannelMask::y(),
                         ChannelMask::y().with(Channel::Alfa)),
      a);  // dead frame, but its segment-table records are observable
  program.mark_output(program.add_call(pointwise_threshold(), a));

  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
}

// ---- range (AEW306) --------------------------------------------------------

/// in -> flat = Threshold(255) (Y proven 0) -> sum = Add(in, flat): the
/// value domain proves the Add writes back exactly `in`.
Call threshold_const_zero() { return pointwise_threshold(255); }

TEST(Range, DropsAProvenIdentityBitExactly) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 flat = program.add_call(threshold_const_zero(), a);
  const i32 sum = program.add_call(Call::make_inter(PixelOp::Add), a, flat);
  program.mark_output(program.add_call(pointwise_scale(), sum));

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_TRUE(opt.changed);
  // The identity Add is dropped by the range tier; the then-dead Threshold
  // falls to dead-elim.  The scale consumer survives, re-pointed at the
  // external input.
  ASSERT_EQ(opt.program.calls().size(), 1u);
  EXPECT_EQ(opt.program.calls()[0].call.op, PixelOp::Scale);
  EXPECT_EQ(opt.program.calls()[0].input_a, a);
  bool saw_range = false;
  for (const RewriteRecord& r : opt.log.records) {
    if (r.kind != "range") continue;
    saw_range = true;
    EXPECT_EQ(r.rule, analysis::rules::kRangeIdentityOp);
    EXPECT_EQ(r.tier, "range");
    EXPECT_EQ(r.calls, (std::vector<i32>{1}));
    EXPECT_NE(r.note.find("b proven == 0"), std::string::npos) << r.note;
  }
  EXPECT_TRUE(saw_range);
  EXPECT_EQ(analysis::verify_program(opt.program).error_count(), 0u);

  Rng rng(0xA306u);
  par::ThreadPool pool(2);
  KernelBackendAdapter kernels({&pool, 4});
  expect_bit_exact(program, opt, kernels, rng);
  core::EngineBackend engine({}, core::EngineMode::CycleAccurate);
  expect_bit_exact(program, opt, engine, rng, /*check_claims=*/true);
}

TEST(Range, StackedIdentitiesCollapseThroughTheAliasChain) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 flat = program.add_call(threshold_const_zero(), a);
  const i32 s1 = program.add_call(Call::make_inter(PixelOp::Add), a, flat);
  const i32 s2 = program.add_call(Call::make_inter(PixelOp::Add), s1, flat);
  program.mark_output(program.add_call(pointwise_scale(), s2));

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_TRUE(opt.changed);
  ASSERT_EQ(opt.program.calls().size(), 1u);
  EXPECT_EQ(opt.program.calls()[0].call.op, PixelOp::Scale);
  // Both drops re-point their consumers through the frame-alias chain all
  // the way back to the external input.
  EXPECT_EQ(opt.program.calls()[0].input_a, a);
  int range_drops = 0;
  for (const RewriteRecord& r : opt.log.records)
    if (r.kind == "range") ++range_drops;
  EXPECT_EQ(range_drops, 2);

  Rng rng(0xA307u);
  par::ThreadPool pool(2);
  KernelBackendAdapter kernels({&pool, 4});
  expect_bit_exact(program, opt, kernels, rng);
}

TEST(Range, KeepsAHostCollectedIdentity) {
  // The identity's result IS a declared output: re-pointing a host-visible
  // result at an external input frame is out of surgery's contract.
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  program.mark_output(program.add_call(
      Call::make_intra(PixelOp::Copy, Neighborhood::con0()), a));

  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
  EXPECT_EQ(opt.program.calls().size(), 1u);
}

TEST(Range, DomainHintsStampClampFreeOnTheFinalProgram) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 b = program.add_input(kFrame, "b");
  alib::OpParams mult;
  mult.shift = 8;  // raw peak 255*255 >> 8 = 254: proven clamp-free
  program.mark_output(program.add_call(
      Call::make_inter(PixelOp::Mult, ChannelMask::y(), ChannelMask::y(),
                       mult),
      a, b));

  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);  // hints are advisory, not a rewrite
  EXPECT_TRUE(opt.program.calls()[0].call.clamp_free.contains(Channel::Y));
}

// ---- reorder (AEW304) ------------------------------------------------------

TEST(Reorder, HoistsARecoverableReuse) {
  CallProgram program;
  const i32 x = program.add_input(kFrame, "x");
  const i32 y = program.add_input(kFrame, "y");
  const i32 z = program.add_input(kFrame, "z");
  program.mark_output(program.add_call(intra_con8(), x));
  program.mark_output(
      program.add_call(Call::make_inter(PixelOp::AbsDiff), y, z));
  program.mark_output(program.add_call(pointwise_threshold(), x));

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_TRUE(opt.changed);
  ASSERT_EQ(opt.log.records.size(), 1u);
  const RewriteRecord& r = opt.log.records[0];
  EXPECT_EQ(r.rule, analysis::rules::kReorderForReuse);
  EXPECT_EQ(r.kind, "reorder");
  EXPECT_EQ(r.tier, "residency");
  // The residency tier claims zero cycles and exactly the recovered words.
  EXPECT_EQ(r.claimed_cycles_delta, 0);
  EXPECT_EQ(r.claimed_cycles_bound.lower, 0u);
  EXPECT_EQ(r.claimed_cycles_bound.upper, 0u);
  EXPECT_EQ(r.claimed_pci_words_delta, static_cast<i64>(kFrameWords));
  // The pointwise consumer of x now directly follows x's first use.
  ASSERT_EQ(opt.program.calls().size(), 3u);
  EXPECT_EQ(opt.program.calls()[1].call.op, PixelOp::Threshold);

  Rng rng(0x2E0Du);
  par::ThreadPool pool(2);
  KernelBackendAdapter kernels({&pool, 4});
  expect_bit_exact(program, opt, kernels, rng);
  // The [0, 0] cycle claim is literal: the permutation must not move the
  // measured modeled cycles at all.
  core::EngineBackend engine({}, core::EngineMode::CycleAccurate);
  expect_bit_exact(program, opt, engine, rng, /*check_claims=*/true);
}

// The dominance refusal, pinned numerically: hoisting is dependence-legal
// and the lint flags it, but the hoisted call lands between a producer and
// the consumer that relocated its result, converting that Relocated input
// into a Transferred one of exactly the recovered size.  Transferred words
// do not strictly decrease (9216 == 9216 for 48x32 frames), so the
// residency proof refuses.
TEST(Reorder, RefusesWhenTransferredWordsDoNotDecrease) {
  CallProgram program;
  const i32 w = program.add_input(kFrame, "w");
  const i32 x = program.add_input(kFrame, "x");
  program.mark_output(program.add_call(pointwise_threshold(1), x));
  program.mark_output(program.add_call(pointwise_threshold(2), w));
  const i32 a2 = program.add_call(pointwise_threshold(3), w);
  program.mark_output(a2);
  program.mark_output(program.add_call(intra_con8(), a2));
  program.mark_output(program.add_call(pointwise_threshold(4), x));

  // The lint proposes the hoist...
  EXPECT_TRUE(analysis::lint_program(program)
                  .mentions(analysis::rules::kReorderForReuse));

  // ...but the rewritten order moves exactly as many words as it saves.
  CallProgram hoisted;
  const i32 hw = hoisted.add_input(kFrame, "w");
  const i32 hx = hoisted.add_input(kFrame, "x");
  hoisted.mark_output(hoisted.add_call(pointwise_threshold(1), hx));
  hoisted.mark_output(hoisted.add_call(pointwise_threshold(2), hw));
  const i32 ha2 = hoisted.add_call(pointwise_threshold(3), hw);
  hoisted.mark_output(ha2);
  hoisted.mark_output(hoisted.add_call(pointwise_threshold(4), hx));
  hoisted.mark_output(hoisted.add_call(intra_con8(), ha2));
  const u64 before = transferred_words(analysis::plan_program(program));
  const u64 after = transferred_words(analysis::plan_program(hoisted));
  EXPECT_EQ(before, 3 * kFrameWords);
  EXPECT_EQ(after, 3 * kFrameWords);

  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
  EXPECT_TRUE(opt.log.records.empty());
  EXPECT_EQ(opt.log.rejected, 1);
}

// ---- dominance tiers pinned against plan_program ---------------------------

TEST(Dominance, ProvenTierClaimsTheWholePlanDelta) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 grad = program.add_call(intra_con8(), a);
  program.mark_output(program.add_call(pointwise_threshold(40), grad));

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_EQ(opt.log.records.size(), 1u);
  const RewriteRecord& r = opt.log.records[0];
  ASSERT_EQ(r.tier, "proven");
  // Dropping one of two calls dominates unconditionally: the one-call
  // rewrite's upper bound sits below the two-call lower bound, and the
  // claimed envelope is exactly the plan difference.
  const ProgramPlan before = analysis::plan_program(program);
  const ProgramPlan after = analysis::plan_program(opt.program);
  ASSERT_LE(after.total.cycles.upper, before.total.cycles.lower);
  EXPECT_EQ(r.claimed_cycles_delta,
            static_cast<i64>(before.total.cycles_estimate) -
                static_cast<i64>(after.total.cycles_estimate));
  EXPECT_EQ(r.claimed_cycles_bound.lower,
            before.total.cycles.lower - after.total.cycles.upper);
  EXPECT_EQ(r.claimed_cycles_bound.upper,
            before.total.cycles.upper - after.total.cycles.lower);
}

TEST(Dominance, StructuralTierFiresWhenProvenCannot) {
  // Six calls, one dead: removing it cannot prove unconditional dominance
  // (five upper bounds exceed six lower bounds at the 10% margin), but the
  // survivors' envelopes are untouched, so the structural tier admits the
  // rewrite and claims exactly the removed call's envelope.
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  program.mark_output(program.add_call(intra_con8(), a));
  program.mark_output(program.add_call(intra_con8(), a));
  program.mark_output(program.add_call(intra_con8(), a));
  program.add_call(pointwise_threshold(), a);  // dead
  program.mark_output(program.add_call(intra_con8(), a));
  program.mark_output(program.add_call(intra_con8(), a));

  const ProgramPlan before = analysis::plan_program(program);
  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_EQ(opt.log.records.size(), 1u);
  const RewriteRecord& r = opt.log.records[0];
  EXPECT_EQ(r.kind, "dead-elim");
  ASSERT_EQ(r.tier, "structural");
  const ProgramPlan after = analysis::plan_program(opt.program);
  ASSERT_GT(after.total.cycles.upper, before.total.cycles.lower)
      << "scenario no longer defeats the proven tier";
  const analysis::CostEnvelope& removed = before.calls[3].envelope;
  EXPECT_EQ(r.claimed_cycles_delta,
            static_cast<i64>(removed.cycles_estimate));
  EXPECT_EQ(r.claimed_cycles_bound.lower, removed.cycles.lower);
  EXPECT_EQ(r.claimed_cycles_bound.upper, removed.cycles.upper);
  EXPECT_EQ(r.claimed_pci_words_delta,
            static_cast<i64>(removed.dma_words_in + removed.dma_words_out));

  Rng rng(0x57A7u);
  core::EngineBackend engine({}, core::EngineMode::Analytic);
  expect_bit_exact(program, opt, engine, rng, /*check_claims=*/true);
}

TEST(Dominance, IllFormedProgramsComeBackUnchanged) {
  CallProgram program;
  program.add_input(kFrame, "a");
  // Reads a frame that is never produced (AEV200) — and its consumer would
  // otherwise look perfectly fusable.
  const i32 ghost = 7;
  const i32 r0 = program.add_call(intra_con8(), ghost);
  program.mark_output(program.add_call(pointwise_threshold(), r0));

  ASSERT_TRUE(analysis::verify_program(program).has_errors());
  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
  EXPECT_TRUE(opt.log.records.empty());
  EXPECT_EQ(opt.program.calls().size(), 2u);
}

// ---- class order -----------------------------------------------------------

TEST(Classes, RunInTableOrderWithinOneRound) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  program.add_call(intra_con8(), a);  // dead
  const i32 grad = program.add_call(intra_con8(), a);
  program.mark_output(program.add_call(pointwise_threshold(), grad));

  // Dead-elim runs first and shifts the fusable pair down to index 0.
  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_EQ(opt.log.records.size(), 2u);
  EXPECT_EQ(opt.log.records[0].kind, "dead-elim");
  EXPECT_EQ(opt.log.records[0].calls, (std::vector<i32>{0}));
  EXPECT_EQ(opt.log.records[1].kind, "fuse");
  EXPECT_EQ(opt.log.records[1].calls, (std::vector<i32>{0, 1}));
  EXPECT_EQ(opt.program.calls().size(), 1u);
  EXPECT_EQ(opt.log.rejected, 0);
}

// ---- RewriteLog JSON schema (pinned, like report_json / plan_json) ---------

TEST(Json, RewriteLogSchemaIsPinned) {
  RewriteLog log;
  RewriteRecord r;
  r.rule = "AEW303";
  r.kind = "fuse";
  r.tier = "proven";
  r.calls = {0, 1};
  r.claimed_cycles_delta = 10;
  r.claimed_cycles_bound = analysis::CostBound{5, 15};
  r.claimed_pci_words_delta = 64;
  r.note = "n";
  log.records.push_back(r);
  log.claimed_cycles_delta = 10;
  log.claimed_cycles_bound = analysis::CostBound{5, 15};
  log.claimed_pci_words_delta = 64;
  log.rejected = 2;
  EXPECT_EQ(analysis::rewrite_log_json(log),
            "{\"rewrites\":[{\"rule\":\"AEW303\",\"kind\":\"fuse\","
            "\"tier\":\"proven\",\"calls\":[0,1],"
            "\"claimed_cycles\":{\"estimate\":10,\"lower\":5,\"upper\":15},"
            "\"claimed_pci_words\":64,\"note\":\"n\"}],"
            "\"claimed_cycles\":{\"estimate\":10,\"lower\":5,\"upper\":15},"
            "\"claimed_pci_words\":64,\"applied\":1,\"rejected\":2}");
  EXPECT_EQ(analysis::rewrite_log_json(RewriteLog{}),
            "{\"rewrites\":[],"
            "\"claimed_cycles\":{\"estimate\":0,\"lower\":0,\"upper\":0},"
            "\"claimed_pci_words\":0,\"applied\":0,\"rejected\":0}");
}

// ---- fuse= text round trip -------------------------------------------------

TEST(Text, FusedStagesRoundTripThroughTheTextForm) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  i32 f = program.add_call(intra_con8(), a);
  f = program.add_call(pointwise_scale(), f);
  f = program.add_call(pointwise_threshold(90), f);
  program.mark_output(f);

  const OptimizeResult opt = analysis::optimize_program(program);
  ASSERT_EQ(opt.program.calls().size(), 1u);
  const std::string text = analysis::format_program(opt.program);
  EXPECT_NE(text.find("fuse="), std::string::npos);
  const CallProgram parsed = analysis::parse_program(text);
  EXPECT_EQ(analysis::format_program(parsed), text);
  ASSERT_EQ(parsed.calls().size(), 1u);
  EXPECT_EQ(parsed.calls()[0].call.fused, opt.program.calls()[0].call.fused);
}

// ---- fused-stage verifier rules --------------------------------------------

analysis::Report verify_single(const Call& call) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  program.mark_output(program.add_call(call, a));
  return analysis::verify_program(program);
}

alib::FusedStage stage_of(PixelOp op) {
  alib::FusedStage s;
  s.op = op;
  s.params.threshold = 10;
  return s;
}

TEST(VerifierFused, SegmentCallsCannotCarryFusedStages) {
  alib::SegmentSpec spec;
  spec.seeds = {Point{4, 4}};
  spec.luma_threshold = 20;
  Call call = Call::make_segment(PixelOp::Copy, Neighborhood::con0(), spec,
                                 ChannelMask::y(),
                                 ChannelMask::y().with(Channel::Alfa));
  call.fused.push_back(stage_of(PixelOp::Threshold));
  const analysis::Report report = verify_single(call);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.mentions(analysis::rules::kModeOpMismatch));
}

TEST(VerifierFused, StagesMustBePointwise) {
  Call call = intra_con8();
  call.fused.push_back(stage_of(PixelOp::AbsDiff));  // inter-only op
  EXPECT_TRUE(verify_single(call).mentions(analysis::rules::kModeOpMismatch));

  Call grad = intra_con8();
  grad.fused.push_back(stage_of(PixelOp::GradientMag));  // needs neighbors
  EXPECT_TRUE(verify_single(grad).mentions(analysis::rules::kOpParamsInvalid));
}

TEST(VerifierFused, StageParamsAreChecked) {
  Call shift = intra_con8();
  shift.fused.push_back(stage_of(PixelOp::Scale));
  shift.fused.back().params.shift = 40;
  EXPECT_TRUE(
      verify_single(shift).mentions(analysis::rules::kOpParamsInvalid));

  Call conv = intra_con8();
  conv.fused.push_back(stage_of(PixelOp::Convolve));
  conv.fused.back().params.coeffs = {1, 2, 3};  // CON_0 takes one
  EXPECT_TRUE(verify_single(conv).mentions(analysis::rules::kOpParamsInvalid));

  Call table = intra_con8();
  table.fused.push_back(stage_of(PixelOp::TableLookup));  // empty table
  table.fused.back().in = ChannelMask::alfa();
  table.fused.back().out = ChannelMask::alfa();
  EXPECT_TRUE(
      verify_single(table).mentions(analysis::rules::kOpParamsInvalid));
}

TEST(VerifierFused, StageMasksAreChecked) {
  Call empty_in = intra_con8();
  empty_in.fused.push_back(stage_of(PixelOp::Threshold));
  empty_in.fused.back().in = ChannelMask::none();
  EXPECT_TRUE(
      verify_single(empty_in).mentions(analysis::rules::kChannelMaskInvalid));

  Call lookup = intra_con8();
  lookup.fused.push_back(stage_of(PixelOp::TableLookup));
  lookup.fused.back().params.table = {1, 2, 3};
  // TableLookup translates segment ids: it must read and write Alfa.
  EXPECT_TRUE(
      verify_single(lookup).mentions(analysis::rules::kChannelMaskInvalid));

  Call clean = intra_con8();
  clean.fused.push_back(stage_of(PixelOp::Threshold));
  EXPECT_EQ(verify_single(clean).error_count(), 0u);
}

// ---- farm wiring -----------------------------------------------------------

TEST(Farm, OptimizeOnSubmitRewritesWholePrograms) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 grad = program.add_call(intra_con8(), a);
  program.mark_output(program.add_call(pointwise_threshold(40), grad));

  Rng rng(0xFA23u);
  const std::vector<img::Image> inputs = {
      img::make_test_frame(kFrame, rng.next_u64())};
  test::InterpreterBackend reference;
  const ProgramRunResult ref =
      analysis::run_program(program, reference, inputs);

  serve::FarmOptions on;
  on.shards = 2;
  on.optimize_on_submit = true;
  serve::EngineFarm farm(on);
  const serve::ProgramExecution exec = farm.execute_program(program, inputs);
  EXPECT_TRUE(exec.optimized);
  EXPECT_EQ(exec.log.records.size(), 1u);
  expect_runs_equal(ref, exec.run);

  serve::FarmOptions off;
  off.shards = 2;
  serve::EngineFarm plain(off);
  const serve::ProgramExecution raw = plain.execute_program(program, inputs);
  EXPECT_FALSE(raw.optimized);
  EXPECT_TRUE(raw.log.records.empty());
  expect_runs_equal(ref, raw.run);
}

// The farm proves its rewrites against its own board — the one its
// admission control and residency plan price against — not the default.
TEST(Farm, OptimizeOnSubmitProvesAgainstTheFarmsBoard) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  const i32 grad = program.add_call(intra_con8(), a);
  program.mark_output(program.add_call(pointwise_threshold(40), grad));

  core::EngineConfig config;
  config.call_setup_overhead_cycles = 66'000;
  const OptimizeResult on_board = analysis::optimize_program(program, {config});
  ASSERT_TRUE(on_board.changed);
  // The board changes the claim, so the comparison below can tell them apart.
  ASSERT_NE(on_board.log.claimed_cycles_delta,
            analysis::optimize_program(program).log.claimed_cycles_delta);

  serve::FarmOptions options;
  options.shards = 1;
  options.config = config;
  options.optimize_on_submit = true;
  serve::EngineFarm farm(options);
  Rng rng(0xFA24u);
  const serve::ProgramExecution exec = farm.execute_program(
      program, {img::make_test_frame(kFrame, rng.next_u64())});
  EXPECT_EQ(analysis::rewrite_log_json(exec.log),
            analysis::rewrite_log_json(on_board.log));
}

// ---- run_program contract --------------------------------------------------

// The input-binding contract holds on every path that runs a program: the
// reference executor, and the farm with and without a residency plan (both
// go through the same runner).
TEST(RunProgram, RejectsMismatchedInputs) {
  CallProgram program;
  const i32 a = program.add_input(kFrame, "a");
  program.mark_output(program.add_call(pointwise_threshold(), a));
  const std::vector<std::vector<img::Image>> bad_inputs = {
      {},
      {img::make_test_frame(kFrame, 1), img::make_test_frame(kFrame, 2)},
      {img::make_test_frame(Size{16, 16}, 1)}};
  alib::SoftwareBackend backend;
  for (const std::vector<img::Image>& inputs : bad_inputs)
    EXPECT_THROW(analysis::run_program(program, backend, inputs),
                 InvalidArgument);
  for (const bool planned : {false, true}) {
    serve::FarmOptions options;
    options.shards = 1;
    options.residency_plan = planned;
    serve::EngineFarm farm(options);
    for (const std::vector<img::Image>& inputs : bad_inputs)
      EXPECT_THROW(farm.execute_program(program, inputs), InvalidArgument)
          << "residency_plan=" << planned << ", " << inputs.size()
          << " inputs";
    EXPECT_EQ(farm.stats().submitted, 0);
  }
}

// ---- tier2: the differential rewrite-fuzz harness --------------------------

/// Wraps one random call as a single-call program (the 520-corpus shape).
CallProgram one_call_program(const Call& call, Size size, bool needs_b) {
  CallProgram program;
  const i32 a = program.add_input(size, "a");
  const i32 b = needs_b ? program.add_input(size, "b") : kNoFrame;
  program.mark_output(program.add_call(call, a, b));
  return program;
}

/// The corpus replay: aeopt must hold every program it touches to zero
/// aeverify regressions, and single-call programs have no rewrite surface
/// at all — they must come back textually identical.
void replay_corpus_case(const Call& call, Size size, bool needs_b) {
  const CallProgram program = one_call_program(call, size, needs_b);
  const std::size_t errors_before =
      analysis::verify_program(program).error_count();
  const OptimizeResult opt = analysis::optimize_program(program);
  EXPECT_FALSE(opt.changed);
  EXPECT_EQ(analysis::format_program(opt.program),
            analysis::format_program(program));
  EXPECT_LE(analysis::verify_program(opt.program).error_count(),
            errors_before);
}

// 8 seeds x 40 calls: the differential suite's corpus recipe.
TEST(OptimizerFuzz, DifferentialCorpusReplaysUnchanged) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    for (int i = 0; i < 40; ++i) {
      const Size size = test::random_frame_size(rng);
      bool needs_b = false;
      const Call call = test::random_any_call(rng, size, needs_b);
      SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                   std::to_string(i) + ": " + call.describe());
      replay_corpus_case(call, size, needs_b);
    }
  }
}

// The 200 farm-sweep cases complete the 520-program corpus.
TEST(OptimizerFuzz, FarmCorpusReplaysUnchanged) {
  Rng rng(0xD1FFu);
  for (int i = 0; i < 200; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    const Call call = test::random_any_call(rng, size, needs_b);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + call.describe());
    replay_corpus_case(call, size, needs_b);
  }
}

// Fusion-biased multi-call programs: the rewriter's real hunting ground.
// Every rewritten program must stay bit-exact on the kernel backend, pass
// aeverify with zero errors, and its claimed cycle envelope must contain
// the engine-measured modeled delta.
TEST(OptimizerFuzz, FusionBiasedProgramsAreBitExactWithSoundClaims) {
  par::ThreadPool pool(4);
  KernelBackendAdapter kernels({&pool, 4});
  core::EngineBackend engine({}, core::EngineMode::Analytic);
  int rewritten = 0;
  for (u64 seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xA30Bu);
    const CallProgram program = test::random_fusion_biased_program(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" +
                 analysis::format_program(program));
    ASSERT_FALSE(analysis::verify_program(program).has_errors());
    const OptimizeResult opt = analysis::optimize_program(program);
    EXPECT_EQ(analysis::verify_program(opt.program).error_count(), 0u);
    if (opt.changed) ++rewritten;
    expect_bit_exact(program, opt, kernels, rng);
    expect_bit_exact(program, opt, engine, rng, /*check_claims=*/true);
  }
  // The generator is biased toward fusable chains: if nothing was ever
  // rewritten, the harness is fuzzing the wrong space.
  EXPECT_GT(rewritten, 10);
}

}  // namespace
}  // namespace ae
