// aealloc — whole-program static residency allocation (analysis/alloc.hpp).
//
// Tier1 (everything not matching *AllocFuzz*): liveness intervals and the
// interference predicate pinned on hand-built programs, the LRU-mirror
// baseline equality against plan_program, Belady's in-place recovery of
// LRU-thrashed reuse, the never-regress fallback, the schedule hint, the
// independent legality checker against tampered plans, the alloc_json
// schema, the AEW307 lint, the farm's plan-directed execution, and aeopt's
// adoption of the schedule hint through the residency dominance proof.
//
// Tier2 (AllocFuzz*): the 520-program fuzz corpus plus fusion-biased
// multi-call programs replayed through the allocator — every plan legal
// (residency_plan_legal), the baseline provably equal to aeplan's
// Transferred words, never a regression, strictly below the cold-driver
// words whenever aeplan reports avoidable transfers, and plan-directed farm
// execution bit-exact against the serial software reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/alloc.hpp"
#include "analysis/lints.hpp"
#include "analysis/optimizer.hpp"
#include "analysis/planner.hpp"
#include "analysis/program_text.hpp"
#include "analysis/rules.hpp"
#include "analysis/verifier.hpp"
#include "core/core.hpp"
#include "serve/farm.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::Neighborhood;
using alib::PixelOp;
using analysis::AllocOptions;
using analysis::CallProgram;
using analysis::kNoFrame;
using analysis::LiveInterval;
using analysis::ResidencyPlan;
using analysis::TransferKind;
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

/// Sums the Transferred-classified input words of an aeplan plan — the
/// quantity the allocator's baseline must provably equal.
u64 plan_transferred_words(const analysis::ProgramPlan& plan) {
  u64 words = 0;
  for (const analysis::CallPlan& cp : plan.calls)
    for (const analysis::InputPlan& ip : cp.inputs)
      if (ip.kind == TransferKind::Transferred) words += ip.words;
  return words;
}

/// Three externals round-robined twice through two input slots: the classic
/// capacity thrash.  LRU re-uploads all six inputs; Belady's farthest-next-
/// use eviction keeps two of the second-round reads resident in place, and
/// a reorder that pairs the uses needs only the three cold uploads.
CallProgram thrash_program() {
  CallProgram p;
  const i32 x = p.add_input(kFrame, "x");
  const i32 y = p.add_input(kFrame, "y");
  const i32 z = p.add_input(kFrame, "z");
  for (const i32 f : {x, y, z, x, y, z})
    p.mark_output(p.add_call(intra_con8(), f));
  return p;
}

/// A relocation chain: every intermediate is consumed by the directly
/// following call, so aeplan's LRU machine already avoids everything that
/// is avoidable — the allocator must fall back to the mirror (saved == 0).
CallProgram chain_program() {
  CallProgram p;
  const i32 a = p.add_input(kFrame, "a");
  const i32 r0 = p.add_call(intra_con8(), a);
  const i32 r1 = p.add_call(pointwise_threshold(4), r0);
  p.mark_output(p.add_call(intra_con8(), r1));
  return p;
}

/// Allocates under `options` and asserts the invariants every plan must
/// hold: legality, baseline equality with aeplan, and never-regress.
ResidencyPlan allocate_checked(const CallProgram& program,
                               const AllocOptions& options = {}) {
  const ResidencyPlan plan = analysis::allocate_residency(program, options);
  std::string why;
  EXPECT_TRUE(analysis::residency_plan_legal(program, plan, &why)) << why;
  EXPECT_EQ(plan.baseline_transferred_words,
            plan_transferred_words(
                analysis::plan_program(program, options.plan)));
  EXPECT_LE(plan.allocated_transferred_words,
            plan.baseline_transferred_words);
  EXPECT_EQ(plan.words_saved,
            plan.baseline_transferred_words -
                plan.allocated_transferred_words);
  return plan;
}

// ---- liveness --------------------------------------------------------------

TEST(Liveness, IntervalsArePinnedOnAHandBuiltProgram) {
  CallProgram p;
  const i32 a = p.add_input(kFrame, "a");
  const i32 b = p.add_input(kFrame, "b");
  const i32 r0 = p.add_call(intra_con8(), a);
  const i32 r1 = p.add_call(Call::make_inter(PixelOp::AbsDiff), r0, b);
  p.mark_output(r1);

  const ResidencyPlan plan = allocate_checked(p);
  ASSERT_EQ(plan.intervals.size(), 4u);

  const LiveInterval& ia = plan.intervals[static_cast<std::size_t>(a)];
  EXPECT_EQ(ia.def, kNoFrame);  // external
  EXPECT_EQ(ia.first_use, 0);
  EXPECT_EQ(ia.last_use, 0);
  EXPECT_EQ(ia.words, kFrameWords);
  EXPECT_FALSE(ia.output);
  EXPECT_TRUE(ia.bank_ok);

  const LiveInterval& ib = plan.intervals[static_cast<std::size_t>(b)];
  EXPECT_EQ(ib.def, kNoFrame);
  EXPECT_EQ(ib.first_use, 1);
  EXPECT_EQ(ib.last_use, 1);

  const LiveInterval& i0 = plan.intervals[static_cast<std::size_t>(r0)];
  EXPECT_EQ(i0.def, 0);
  EXPECT_EQ(i0.first_use, 1);
  EXPECT_EQ(i0.last_use, 1);
  EXPECT_FALSE(i0.output);

  const LiveInterval& i1 = plan.intervals[static_cast<std::size_t>(r1)];
  EXPECT_EQ(i1.def, 1);
  EXPECT_EQ(i1.first_use, kNoFrame);  // read back by the host, never on board
  EXPECT_EQ(i1.last_use, kNoFrame);
  EXPECT_TRUE(i1.output);

  // a's span [0,0] ends before b's [1,1] begins; r0 [0,1] overlaps both;
  // the never-read output r1 interferes with nothing.
  EXPECT_FALSE(analysis::frames_interfere(ia, ib));
  EXPECT_TRUE(analysis::frames_interfere(ia, i0));
  EXPECT_TRUE(analysis::frames_interfere(i0, ib));
  EXPECT_FALSE(analysis::frames_interfere(i1, ia));
  EXPECT_FALSE(analysis::frames_interfere(i1, i0));
  EXPECT_EQ(plan.interference_edges, 2);
  EXPECT_EQ(plan.max_live, 2);
}

TEST(Liveness, InterferenceIsReflexiveFreeAndSymmetric) {
  LiveInterval a;
  a.frame = 0;
  a.first_use = 0;
  a.last_use = 3;
  LiveInterval b = a;
  b.frame = 1;
  b.first_use = 2;
  b.last_use = 5;
  EXPECT_FALSE(analysis::frames_interfere(a, a));  // same frame never
  EXPECT_TRUE(analysis::frames_interfere(a, b));
  EXPECT_TRUE(analysis::frames_interfere(b, a));
  b.first_use = 4;  // disjoint: [0,3] vs [4,5]
  EXPECT_FALSE(analysis::frames_interfere(a, b));
}

// ---- assignment ------------------------------------------------------------

TEST(Alloc, BaselineEqualsAeplanTransferredWords) {
  for (const CallProgram& program :
       {thrash_program(), chain_program()}) {
    allocate_checked(program);  // asserts the equality internally
    AllocOptions in_place;
    in_place.schedule = false;
    allocate_checked(program, in_place);
  }
}

TEST(Alloc, BeladyRecoversThrashedReuseInPlace) {
  AllocOptions options;
  options.schedule = false;  // in-place: same order, only eviction changes
  const ResidencyPlan plan = allocate_checked(thrash_program(), options);
  EXPECT_FALSE(plan.reordered);
  // LRU re-uploads all six inputs; Belady keeps x and z resident across
  // their second uses (y is the farthest-next-use victim both times).
  EXPECT_EQ(plan.cold_words, 6 * kFrameWords);
  EXPECT_EQ(plan.baseline_transferred_words, 6 * kFrameWords);
  EXPECT_EQ(plan.allocated_transferred_words, 4 * kFrameWords);
  EXPECT_EQ(plan.words_saved, 2 * kFrameWords);
  EXPECT_EQ(plan.inputs_transferred, 4);
  EXPECT_EQ(plan.inputs_reused, 2);
  EXPECT_EQ(plan.inputs_relocated, 0);
  ASSERT_EQ(plan.assignments.size(), 6u);
  EXPECT_EQ(plan.assignments[3].inputs[0].kind, TransferKind::Reused);
  EXPECT_EQ(plan.assignments[5].inputs[0].kind, TransferKind::Reused);
  // After call 2 both slot frames (x and z) are read again: pinned.
  EXPECT_EQ(plan.assignments[2].keep, (std::vector<i32>{0, 2}));
  // The thrash makes all three externals pairwise live-range rivals.
  EXPECT_EQ(plan.interference_edges, 3);
  EXPECT_EQ(plan.max_live, 3);
}

TEST(Alloc, ScheduleHintPairsTheUses) {
  const CallProgram program = thrash_program();
  const ResidencyPlan plan = allocate_checked(program);
  EXPECT_TRUE(plan.reordered);
  // Pairing each frame's two uses needs only the three cold uploads.
  EXPECT_EQ(plan.allocated_transferred_words, 3 * kFrameWords);
  EXPECT_EQ(plan.words_saved, 3 * kFrameWords);
  std::vector<i32> sorted_schedule = plan.schedule;
  std::sort(sorted_schedule.begin(), sorted_schedule.end());
  EXPECT_EQ(sorted_schedule, (std::vector<i32>{0, 1, 2, 3, 4, 5}));
}

TEST(Alloc, NeverRegressesTheLruBaseline) {
  // The chain is already optimal under LRU (relocation catches every
  // intermediate): the allocator must emit the mirror's plan unchanged.
  const ResidencyPlan plan = allocate_checked(chain_program());
  EXPECT_FALSE(plan.reordered);
  EXPECT_EQ(plan.words_saved, 0u);
  const analysis::ProgramPlan lru = analysis::plan_program(chain_program());
  ASSERT_EQ(plan.assignments.size(), lru.calls.size());
  for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
    ASSERT_EQ(plan.assignments[i].inputs.size(), lru.calls[i].inputs.size());
    for (std::size_t k = 0; k < plan.assignments[i].inputs.size(); ++k)
      EXPECT_EQ(plan.assignments[i].inputs[k].kind,
                lru.calls[i].inputs[k].kind)
          << "call " << i << " input " << k;
  }
}

TEST(Alloc, ScheduleOffKeepsProgramOrder) {
  AllocOptions options;
  options.schedule = false;
  const ResidencyPlan plan = allocate_checked(thrash_program(), options);
  EXPECT_FALSE(plan.reordered);
  EXPECT_EQ(plan.schedule, (std::vector<i32>{0, 1, 2, 3, 4, 5}));
  for (std::size_t i = 0; i < plan.assignments.size(); ++i)
    EXPECT_EQ(plan.assignments[i].call_index, static_cast<i32>(i));
}

// ---- legality --------------------------------------------------------------

TEST(Legality, FlagsTamperedPlans) {
  const CallProgram program = thrash_program();
  AllocOptions options;
  options.schedule = false;
  const ResidencyPlan plan = analysis::allocate_residency(program, options);
  ASSERT_TRUE(analysis::residency_plan_legal(program, plan));

  {
    ResidencyPlan t = plan;  // claim a reuse of a frame not in any slot
    t.assignments[1].inputs[0].kind = TransferKind::Reused;
    std::string why;
    EXPECT_FALSE(analysis::residency_plan_legal(program, t, &why));
    EXPECT_FALSE(why.empty());
  }
  {
    ResidencyPlan t = plan;  // duplicate schedule entry: not a permutation
    t.schedule[1] = 0;
    std::string why;
    EXPECT_FALSE(analysis::residency_plan_legal(program, t, &why));
    EXPECT_FALSE(why.empty());
  }
  {
    ResidencyPlan t = plan;  // word count diverges from the frame geometry
    t.assignments[0].inputs[0].words += 1;
    std::string why;
    EXPECT_FALSE(analysis::residency_plan_legal(program, t, &why));
    EXPECT_FALSE(why.empty());
  }
  {
    ResidencyPlan t = plan;  // keep set names a frame not in any slot
    t.assignments[0].keep = {1};
    std::string why;
    EXPECT_FALSE(analysis::residency_plan_legal(program, t, &why));
    EXPECT_FALSE(why.empty());
  }
}

TEST(Legality, FlagsDependenceViolatingSchedules) {
  const CallProgram program = chain_program();
  const ResidencyPlan plan = analysis::allocate_residency(program);
  ResidencyPlan t = plan;  // call 1 consumes call 0's result
  std::swap(t.schedule[0], t.schedule[1]);
  std::string why;
  EXPECT_FALSE(analysis::residency_plan_legal(program, t, &why));
  EXPECT_FALSE(why.empty());
}

// ---- renderings ------------------------------------------------------------

TEST(AllocJson, SchemaIsPinned) {
  AllocOptions options;
  options.schedule = false;
  const CallProgram program = thrash_program();
  const ResidencyPlan plan = analysis::allocate_residency(program, options);
  const std::string json = analysis::alloc_json(plan, program);
  EXPECT_NE(json.find("\"schedule\":[0,1,2,3,4,5]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"reordered\":false"), std::string::npos);
  EXPECT_NE(json.find("\"intervals\":[{\"frame\":\"x\",\"def\":-1,"
                      "\"first_use\":0,\"last_use\":3,\"words\":3072,"
                      "\"output\":false,\"bank_ok\":true}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"interference\":{\"edges\":3,\"max_live\":3}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"words\":{\"cold\":18432,\"baseline\":18432,"
                      "\"allocated\":12288,\"saved\":6144}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"inputs\":{\"transferred\":4,\"reused\":2,"
                      "\"relocated\":0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\":\"reused\""), std::string::npos) << json;
}

TEST(AllocFormat, SummarizesTotals) {
  AllocOptions options;
  options.schedule = false;
  const CallProgram program = thrash_program();
  const ResidencyPlan plan = analysis::allocate_residency(program, options);
  const std::string text = plan.format(program);
  EXPECT_NE(text.find("alloc: in-order"), std::string::npos) << text;
  EXPECT_NE(text.find("saved=6144w"), std::string::npos) << text;
}

// ---- AEW307 ----------------------------------------------------------------

TEST(Lints, Aew307AllocatableResidency) {
  // Positive: the thrash re-uploads x and z although farthest-next-use
  // eviction would have kept them resident in the same order.
  const analysis::Report positive = analysis::lint_program(thrash_program());
  EXPECT_TRUE(positive.mentions(analysis::rules::kAllocatableResidency));

  // Negative: the chain's LRU schedule is already optimal — nothing for
  // the allocator to recover, so the lint must stay silent.
  const analysis::Report negative = analysis::lint_program(chain_program());
  EXPECT_FALSE(negative.mentions(analysis::rules::kAllocatableResidency));
}

TEST(Lints, Aew307DoesNotFireOnReorderOnlyGains) {
  // All of the thrash's in-place gain comes from eviction decisions; a
  // program whose only gain needs a reorder must not trigger the in-place
  // lint.  Chain with an extra independent pair: the second use of x is
  // only recoverable by hoisting, which AEW304 (not AEW307) owns.
  CallProgram p;
  const i32 x = p.add_input(kFrame, "x");
  const i32 m = p.add_input(kFrame, "m");
  const i32 n = p.add_input(kFrame, "n");
  p.mark_output(p.add_call(intra_con8(), x));
  p.mark_output(p.add_call(Call::make_inter(PixelOp::AbsDiff), m, n));
  p.mark_output(p.add_call(pointwise_threshold(), x));
  const analysis::Report report = analysis::lint_program(p);
  EXPECT_TRUE(report.mentions(analysis::rules::kReorderForReuse));
  EXPECT_FALSE(report.mentions(analysis::rules::kAllocatableResidency));
}

// ---- farm plan-directed execution ------------------------------------------

TEST(Farm, ResidencyPlanExecutionIsBitExactAndCounted) {
  const CallProgram program = thrash_program();
  Rng rng(0xA110Cu);
  const std::vector<img::Image> inputs = external_inputs(program, rng);
  test::InterpreterBackend reference;
  const analysis::ProgramRunResult ref =
      analysis::run_program(program, reference, inputs);

  serve::FarmOptions on;
  on.shards = 2;
  on.residency_plan = true;
  serve::EngineFarm farm(on);
  const serve::ProgramExecution exec = farm.execute_program(program, inputs);
  EXPECT_TRUE(exec.allocated);
  expect_runs_equal(ref, exec.run);
  std::string why;
  EXPECT_TRUE(analysis::residency_plan_legal(program, exec.residency, &why))
      << why;
  EXPECT_EQ(exec.residency.words_saved, 3 * kFrameWords);
  const serve::FarmStats stats = farm.stats();
  EXPECT_EQ(stats.planned_programs, 1);
  EXPECT_EQ(stats.planned_words_saved, exec.residency.words_saved);

  serve::FarmOptions off;
  off.shards = 2;
  serve::EngineFarm plain(off);
  const serve::ProgramExecution raw = plain.execute_program(program, inputs);
  EXPECT_FALSE(raw.allocated);
  expect_runs_equal(ref, raw.run);
  EXPECT_EQ(plain.stats().planned_programs, 0);
}

// The home shard follows the plan: with inputs keyed when bound and results
// keyed by the session that produced them, the frames it transfers, reuses
// and relocates are exactly the planned ones.
TEST(Farm, PlannedExecutionMovesExactlyThePlannedFrames) {
  for (const CallProgram& program : {thrash_program(), chain_program()}) {
    Rng rng(0xA110Cu);
    const std::vector<img::Image> inputs = external_inputs(program, rng);
    serve::FarmOptions options;
    options.shards = 2;
    options.residency_plan = true;
    serve::EngineFarm farm(options);
    const serve::ProgramExecution exec = farm.execute_program(program, inputs);
    i64 transferred = 0;
    i64 reused = 0;
    i64 relocated = 0;
    for (const serve::ShardStats& shard : farm.stats().shards) {
      transferred += shard.session.inputs_transferred;
      reused += shard.session.inputs_reused - shard.session.board_copies;
      relocated += shard.session.board_copies;
    }
    EXPECT_EQ(transferred, exec.residency.inputs_transferred);
    EXPECT_EQ(reused, exec.residency.inputs_reused);
    EXPECT_EQ(relocated, exec.residency.inputs_relocated);
  }
}

// Modeled time of a planned program, pinned: the run's cycle sum and the
// home shard's clock on a fresh farm.  No call of a lone program is queued
// behind a running one, so none gets strip overlap, and the clock is the
// plain sum of the calls.
TEST(Farm, PlannedProgramModeledTimeIsPinned) {
  struct Case {
    CallProgram program;
    u64 cycles;
  };
  for (const Case& c :
       {Case{thrash_program(), 1248255}, Case{chain_program(), 626484}}) {
    Rng rng(0xA110Cu);
    const std::vector<img::Image> inputs = external_inputs(c.program, rng);
    serve::FarmOptions options;
    options.shards = 2;
    options.residency_plan = true;
    serve::EngineFarm farm(options);
    const serve::ProgramExecution exec =
        farm.execute_program(c.program, inputs);
    farm.drain();
    const serve::FarmStats stats = farm.stats();
    EXPECT_EQ(exec.run.stats.cycles, c.cycles);
    EXPECT_EQ(stats.shards[0].busy_cycles, c.cycles);
    EXPECT_EQ(stats.shards[1].busy_cycles, 0u);
    EXPECT_EQ(stats.overlap_cycles_saved, 0u);
  }
}

// ---- aeopt schedule-hint adoption ------------------------------------------

/// Thrash whose natural AEW304 hoists are all dependence-blocked or
/// word-neutral: call 3 needs call 2's fresh result next to its reuse of x,
/// and hoisting the second y or z alone breaks the r2 relocation it rides
/// on.  The local hoist search stalls; only the allocator's whole-order
/// hint (pairing y's uses while keeping c2 adjacent to c3) strictly
/// decreases the LRU Transferred words.
CallProgram hint_only_program() {
  CallProgram p;
  const i32 x = p.add_input(kFrame, "x");
  const i32 y = p.add_input(kFrame, "y");
  const i32 z = p.add_input(kFrame, "z");
  p.mark_output(p.add_call(intra_con8(), x));                          // 0
  p.mark_output(p.add_call(intra_con8(), y));                          // 1
  const i32 r2 = p.add_call(intra_con8(), z);                          // 2
  p.mark_output(r2);
  p.mark_output(p.add_call(Call::make_inter(PixelOp::AbsDiff), x, r2));  // 3
  p.mark_output(p.add_call(intra_con8(), y));                          // 4
  p.mark_output(p.add_call(intra_con8(), z));                          // 5
  return p;
}

TEST(Optimizer, AdoptsTheAllocScheduleHintWhenLocalHoistsStall) {
  const CallProgram program = hint_only_program();

  // The local hoist search runs first in each round, so a single record —
  // the hint's — shows every local candidate was blocked or neutral.
  const analysis::OptimizeResult on = analysis::optimize_program(program);
  ASSERT_TRUE(on.changed);
  ASSERT_EQ(on.log.records.size(), 1u);
  const analysis::RewriteRecord& r = on.log.records[0];
  EXPECT_EQ(r.rule, analysis::rules::kReorderForReuse);
  EXPECT_EQ(r.kind, "reorder");
  EXPECT_EQ(r.tier, "residency");
  EXPECT_NE(r.note.find("aealloc"), std::string::npos) << r.note;
  // The adopted order pairs y's uses and keeps x's reuse adjacent to the
  // c2->c3 relocation: two of the six LRU uploads disappear.
  EXPECT_EQ(r.claimed_pci_words_delta, static_cast<i64>(2 * kFrameWords));
  EXPECT_EQ(r.claimed_cycles_delta, 0);

  Rng rng(0x5CEDu);
  alib::SoftwareBackend software;
  const std::vector<img::Image> inputs = external_inputs(program, rng);
  expect_runs_equal(analysis::run_program(program, software, inputs),
                    analysis::run_program(on.program, software, inputs));
  core::EngineBackend engine({}, core::EngineMode::CycleAccurate);
  expect_runs_equal(analysis::run_program(program, engine, inputs),
                    analysis::run_program(on.program, engine, inputs));
}

// ---- tier2: the 520-corpus replay + fusion-biased sweep --------------------

CallProgram one_call_program(const Call& call, Size size, bool needs_b) {
  CallProgram program;
  const i32 a = program.add_input(size, "a");
  const i32 b = needs_b ? program.add_input(size, "b") : kNoFrame;
  program.mark_output(program.add_call(call, a, b));
  return program;
}

/// The corpus gate: the plan must be legal, its baseline must equal
/// aeplan's Transferred words, it must never regress that baseline, and it
/// must land strictly below the cold-driver words whenever aeplan reports
/// any avoidable transfer at all.
void replay_alloc_case(const CallProgram& program) {
  const ResidencyPlan plan = analysis::allocate_residency(program);
  std::string why;
  ASSERT_TRUE(analysis::residency_plan_legal(program, plan, &why)) << why;
  const analysis::ProgramPlan lru = analysis::plan_program(program);
  EXPECT_EQ(plan.baseline_transferred_words, plan_transferred_words(lru));
  EXPECT_LE(plan.allocated_transferred_words,
            plan.baseline_transferred_words);
  if (lru.transfers_avoidable > 0) {
    EXPECT_LT(plan.allocated_transferred_words, plan.cold_words);
  }
}

// 8 seeds x 40 calls: the differential suite's corpus recipe.
TEST(AllocFuzz, DifferentialCorpusPlansAreLegalAndNeverRegress) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    for (int i = 0; i < 40; ++i) {
      const Size size = test::random_frame_size(rng);
      bool needs_b = false;
      const Call call = test::random_any_call(rng, size, needs_b);
      SCOPED_TRACE("seed " + std::to_string(seed) + " case " +
                   std::to_string(i) + ": " + call.describe());
      replay_alloc_case(one_call_program(call, size, needs_b));
    }
  }
}

// The 200 farm-sweep cases complete the 520-program corpus; every fourth
// case additionally runs through the farm's plan-directed executor and is
// held bit-exact against the serial interpreter reference.
TEST(AllocFuzz, FarmCorpusPlansAreLegalAndExecutionsBitExact) {
  serve::FarmOptions options;
  options.shards = 2;
  options.residency_plan = true;
  serve::EngineFarm farm(options);
  test::InterpreterBackend reference;
  Rng rng(0xD1FFu);
  i64 executed = 0;
  for (int i = 0; i < 200; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    const Call call = test::random_any_call(rng, size, needs_b);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + call.describe());
    const CallProgram program = one_call_program(call, size, needs_b);
    replay_alloc_case(program);
    if (i % 4 != 0) continue;
    const std::vector<img::Image> inputs = external_inputs(program, rng);
    const serve::ProgramExecution exec =
        farm.execute_program(program, inputs);
    ASSERT_TRUE(exec.allocated);
    expect_runs_equal(analysis::run_program(program, reference, inputs),
                      exec.run);
    ++executed;
  }
  EXPECT_EQ(farm.stats().planned_programs, executed);
}

// Fusion-biased multi-call programs: the allocator's real hunting ground —
// shared inputs, relocation chains, and enough calls for eviction to bite.
TEST(AllocFuzz, FusionBiasedProgramsPlanLegallyAndRunBitExact) {
  serve::FarmOptions options;
  options.shards = 2;
  options.residency_plan = true;
  serve::EngineFarm farm(options);
  test::InterpreterBackend reference;
  u64 saved = 0;
  for (u64 seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xA30Bu);
    const CallProgram program = test::random_fusion_biased_program(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" +
                 analysis::format_program(program));
    ASSERT_FALSE(analysis::verify_program(program).has_errors());
    replay_alloc_case(program);
    if (seed % 3 != 0) continue;
    const std::vector<img::Image> inputs = external_inputs(program, rng);
    const serve::ProgramExecution exec =
        farm.execute_program(program, inputs);
    ASSERT_TRUE(exec.allocated);
    saved += exec.residency.words_saved;
    expect_runs_equal(analysis::run_program(program, reference, inputs),
                      exec.run);
  }
  // The generator shares inputs across calls: if no program ever saved a
  // word, the sweep is fuzzing the wrong space.
  EXPECT_GT(saved, 0u);
}

}  // namespace
}  // namespace ae
