// aeverify — the static call-program verifier, tested differentially
// against the dynamic failures it must pre-empt:
//
//   * every known-bad call (test_util.hpp's generator) is flagged with its
//     expected rule *and* rejected by a live backend,
//   * the 520 known-good random calls of the differential fuzz recipes
//     (8 seeds x 40 kernel cases + 200 farm cases) produce zero errors —
//     the no-false-positives gate,
//   * the PR 2 duplicate-slot bug class (one frame feeding both inputs of
//     an inter call) is reconstructed and statically rejected in program
//     form and through every guard layer (EngineSession, ResilientSession,
//     EngineFarm with validate_before_execute),
//   * the text form round-trips and the exit-code contract holds.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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
using analysis::CallProgram;
using analysis::Report;
using analysis::Severity;

// ---- catalog / report plumbing ---------------------------------------------

TEST(RuleCatalog, IsStableAndUnique) {
  const auto& rules = analysis::rules::catalog();
  EXPECT_GE(rules.size(), 23u);
  std::set<std::string> ids;
  for (const auto& rule : rules) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
    const std::string prefix = std::string(rule.id).substr(0, 3);
    EXPECT_TRUE(prefix == "AEV" || prefix == "AEW") << rule.id;
    // AEW lints are advisory by contract: always warnings.
    if (prefix == "AEW") {
      EXPECT_EQ(rule.severity, Severity::Warning);
    }
    EXPECT_FALSE(std::string(rule.summary).empty());
  }
  // Severity spot checks the docs table and the tests key on.
  const auto severity_of = [&](const char* id) {
    for (const auto& rule : rules)
      if (std::string(rule.id) == id) return rule.severity;
    ADD_FAILURE() << "missing rule " << id;
    return Severity::Error;
  };
  EXPECT_EQ(severity_of(analysis::rules::kZbtDuplicateSlot), Severity::Error);
  EXPECT_EQ(severity_of(analysis::rules::kUseBeforeWrite), Severity::Error);
  EXPECT_EQ(severity_of(analysis::rules::kStripUnaligned), Severity::Warning);
  EXPECT_EQ(severity_of(analysis::rules::kWindowExceedsFrame),
            Severity::Warning);
  EXPECT_EQ(severity_of(analysis::rules::kDeadResult), Severity::Warning);
  EXPECT_EQ(severity_of(analysis::rules::kSegmentIdOverlap),
            Severity::Warning);
}

TEST(Report, ExitCodeContract) {
  Report clean;
  EXPECT_EQ(clean.exit_code(false), analysis::kExitClean);
  EXPECT_EQ(clean.exit_code(true), analysis::kExitClean);

  Report warned;
  warned.add(Severity::Warning, analysis::rules::kStripUnaligned, 0, "short");
  EXPECT_EQ(warned.exit_code(false), analysis::kExitClean);
  EXPECT_EQ(warned.exit_code(true), analysis::kExitErrors);
  EXPECT_FALSE(warned.has_errors());
  EXPECT_EQ(warned.warning_count(), 1u);

  Report failed;
  failed.add(Severity::Error, analysis::rules::kArityMismatch, 3,
             "inter call has no second input frame", "pass both frames");
  EXPECT_EQ(failed.exit_code(false), analysis::kExitErrors);
  EXPECT_TRUE(failed.mentions(analysis::rules::kArityMismatch));
  const std::string line = failed.diagnostics().front().format();
  EXPECT_NE(line.find("AEV101"), std::string::npos);
  EXPECT_NE(line.find("@call 3"), std::string::npos);
  EXPECT_NE(line.find("hint"), std::string::npos);
}

TEST(Report, EnforceThrowsTypedErrorCarryingTheReport) {
  Report warned;
  warned.add(Severity::Warning, analysis::rules::kDeadResult, 1, "dead");
  EXPECT_NO_THROW(analysis::enforce(warned));

  Report failed;
  failed.add(Severity::Error, analysis::rules::kZbtDuplicateSlot, 0,
             "one frame, both bank pairs");
  try {
    analysis::enforce(failed);
    FAIL() << "enforce() must throw on errors";
  } catch (const analysis::VerificationError& error) {
    EXPECT_TRUE(error.report().mentions(analysis::rules::kZbtDuplicateSlot));
    EXPECT_NE(std::string(error.what()).find("AEV210"), std::string::npos);
  }
}

// ---- the PR 2 duplicate-slot class, statically rejected --------------------

TEST(DuplicateSlot, ProgramFormIsRejected) {
  CallProgram program;
  const i32 frame = program.add_input(Size{48, 32}, "frame");
  const i32 diff =
      program.add_call(Call::make_inter(PixelOp::AbsDiff), frame, frame);
  program.mark_output(diff);

  const Report report = analysis::verify_program(program);
  EXPECT_TRUE(report.has_errors());
  ASSERT_TRUE(report.mentions(analysis::rules::kZbtDuplicateSlot));
  EXPECT_EQ(report.by_rule(analysis::rules::kZbtDuplicateSlot)
                .front()
                .call_index,
            0);
}

TEST(DuplicateSlot, TextFormIsRejected) {
  const Report report = analysis::verify_program(analysis::parse_program(
      "input  frame 48x32\n"
      "call   diff = inter AbsDiff frame frame\n"
      "output diff\n"));
  EXPECT_TRUE(report.mentions(analysis::rules::kZbtDuplicateSlot));
}

TEST(DuplicateSlot, SessionGuardRejectsAliasedImages) {
  core::SessionOptions options;
  options.validate_before_execute = true;
  core::EngineSession session({}, options);

  const img::Image a = test::small_frame();
  const Call diff = Call::make_inter(PixelOp::AbsDiff);
  // Same object through both inputs.
  EXPECT_THROW(session.execute(diff, a, &a), analysis::VerificationError);
  // Distinct objects, identical content: the residency cache would still
  // satisfy both claims from one on-board copy.
  const img::Image copy = test::small_frame();
  EXPECT_THROW(session.execute(diff, a, &copy),
               analysis::VerificationError);
  // Distinct content is fine — and the guard costs nothing when off.
  const img::Image b = test::small_frame_b();
  EXPECT_NO_THROW(session.execute(diff, a, &b));
  core::EngineSession unguarded({}, {});
  EXPECT_NO_THROW(unguarded.execute(diff, a, &a));
}

TEST(DuplicateSlot, ResilientGuardRejectsBeforeAnyAccounting) {
  core::ResilientOptions options;
  options.session.validate_before_execute = true;
  core::ResilientSession session({}, options);

  const img::Image a = test::small_frame();
  EXPECT_THROW(session.execute(Call::make_inter(PixelOp::AbsDiff), a, &a),
               analysis::VerificationError);
  // A statically rejected call must not move the driver's accounting: no
  // call counted, no retry burned, breaker untouched.
  EXPECT_EQ(session.stats().calls, 0);
  EXPECT_EQ(session.stats().engine_attempts, 0);
  EXPECT_TRUE(session.healthy());

  const img::Image b = test::small_frame_b();
  EXPECT_NO_THROW(
      session.execute(Call::make_inter(PixelOp::AbsDiff), a, &b));
  EXPECT_EQ(session.stats().calls, 1);
}

TEST(DuplicateSlot, FarmGuardRejectsInTheCallersContext) {
  serve::FarmOptions options;
  options.shards = 2;
  options.resilient.session.validate_before_execute = true;
  serve::EngineFarm farm(options);

  const img::Image a = test::small_frame();
  // submit() itself throws — the bad call never reaches a shard worker.
  EXPECT_THROW(farm.submit(Call::make_inter(PixelOp::AbsDiff), a, &a),
               analysis::VerificationError);

  const img::Image b = test::small_frame_b();
  auto future = farm.submit(Call::make_inter(PixelOp::AbsDiff), a, &b);
  EXPECT_NO_THROW(future.get());
  farm.shutdown();
  EXPECT_EQ(farm.stats().completed, 1);
}

// ---- differential: known-bad calls vs the dynamic failures -----------------

TEST(DifferentialBadCalls, StaticallyFlaggedAndDynamicallyRejected) {
  core::EngineBackend engine({}, core::EngineMode::CycleAccurate);
  std::set<std::string> fired;
  for (u64 seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 0xBAD5EED0DDF00D1ull);
    for (test::BadCall& bad : test::known_bad_calls(rng)) {
      SCOPED_TRACE(std::string(bad.what) + " [seed " + std::to_string(seed) +
                   "]");
      // Static: the verifier flags exactly this rule class as an error.
      const Size* b_size = bad.pass_b ? &bad.size_b : nullptr;
      const Report report =
          analysis::verify_call(bad.call, bad.size, b_size, false);
      EXPECT_TRUE(report.has_errors());
      ASSERT_TRUE(report.mentions(bad.rule_id)) << report.format();
      for (const analysis::Diagnostic& d : report.by_rule(bad.rule_id)) {
        EXPECT_EQ(d.severity, Severity::Error);
        EXPECT_FALSE(d.fix_hint.empty()) << d.rule_id;
        fired.insert(d.rule_id);
      }
      // Dynamic: the live backend rejects the same call (validate_call,
      // validate_frame, or segment-id exhaustion mid-expansion).
      const img::Image a = img::make_test_frame(bad.size, rng.next_u64());
      const img::Image b = img::make_test_frame(bad.size_b, rng.next_u64());
      EXPECT_THROW(engine.execute(bad.call, a, bad.pass_b ? &b : nullptr),
                   Error);
    }
  }
  // The acceptance bar: at least 8 distinct rules fire differentially.
  EXPECT_GE(fired.size(), 8u) << "rules covered: " << fired.size();
}

// ---- no false positives on the known-good fuzz corpus ----------------------

TEST(DifferentialKnownGood, KernelRecipeHasZeroErrors) {
  // Exactly the 320 calls of KernelVsFunctional (8 seeds x 40 cases),
  // including the generator's frame-content draws so the streams match.
  int verified = 0;
  for (u64 seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 0xA24BAED4963EE407ull);
    for (int i = 0; i < 40; ++i) {
      const Size size = test::random_frame_size(rng);
      bool needs_b = false;
      const Call call = test::random_any_call(rng, size, needs_b);
      rng.next_u64();  // frame a content draw in the differential suite
      rng.next_u64();  // frame b content draw
      const Size b = size;
      const Report report =
          analysis::verify_call(call, size, needs_b ? &b : nullptr, false);
      EXPECT_EQ(report.error_count(), 0u)
          << "seed " << seed << " case " << i << ": " << call.describe()
          << "\n" << report.format();
      ++verified;
    }
  }
  EXPECT_EQ(verified, 320);
}

TEST(DifferentialKnownGood, FarmRecipeHasZeroErrors) {
  // The 200-call farm differential workload (seed 0xD1FF).
  Rng rng(0xD1FFu);
  for (int i = 0; i < 200; ++i) {
    const Size size = test::random_frame_size(rng);
    bool needs_b = false;
    const Call call = test::random_any_call(rng, size, needs_b);
    rng.bounded(6);  // frame a content seed draw in the farm suite
    rng.bounded(6);  // frame b content seed draw
    const Size b = size;
    const Report report =
        analysis::verify_call(call, size, needs_b ? &b : nullptr, false);
    EXPECT_EQ(report.error_count(), 0u)
        << "case " << i << ": " << call.describe() << "\n" << report.format();
  }
}

// ---- warning rules ---------------------------------------------------------

TEST(WarningRules, OversizedWindowAndShortStripWarnButPass) {
  const Call call =
      Call::make_intra(PixelOp::Median, Neighborhood::rect(9, 9));
  const Report report = analysis::verify_call(call, Size{5, 5}, nullptr,
                                              false);
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(report.mentions(analysis::rules::kWindowExceedsFrame));
  EXPECT_TRUE(report.mentions(analysis::rules::kStripUnaligned));
  EXPECT_EQ(report.exit_code(false), analysis::kExitClean);
  EXPECT_EQ(report.exit_code(true), analysis::kExitErrors);
}

TEST(WarningRules, DegenerateFrameIsAnError) {
  const Report report = analysis::verify_call(
      Call::make_intra(PixelOp::Copy, Neighborhood::con0()), Size{0, 0},
      nullptr, false);
  EXPECT_TRUE(report.mentions(analysis::rules::kDegenerateFrame));
  EXPECT_TRUE(report.has_errors());
}

// ---- whole-program dataflow ------------------------------------------------

TEST(ProgramDataflow, UseBeforeWriteAndDeadResults) {
  CallProgram program;
  const i32 input = program.add_input(Size{48, 32}, "a");
  // Reads a frame id no call has produced (forward/unknown reference).
  program.add_call(Call::make_intra(PixelOp::Copy, Neighborhood::con0()), 99);
  // Produces a result nobody consumes while outputs are declared.
  program.add_call(
      Call::make_intra(PixelOp::GradientMag, Neighborhood::con8()), input);
  const i32 kept = program.add_call(
      Call::make_intra(PixelOp::Copy, Neighborhood::con0()), input);
  program.mark_output(kept);

  const Report report = analysis::verify_program(program);
  EXPECT_TRUE(report.mentions(analysis::rules::kUseBeforeWrite));
  EXPECT_TRUE(report.mentions(analysis::rules::kDeadResult));
  ASSERT_FALSE(report.by_rule(analysis::rules::kUseBeforeWrite).empty());
  EXPECT_EQ(report.by_rule(analysis::rules::kUseBeforeWrite).front()
                .call_index,
            0);
}

TEST(ProgramDataflow, OverlappingSegmentIdRangesWarn) {
  const Report report = analysis::verify_program(analysis::parse_program(
      "input  frame 48x32\n"
      "call   s1 = segment Copy con4 frame seeds=(2,2),(40,20) luma=10"
      " id_base=100 out=y+alfa\n"
      "call   s2 = segment Copy con4 frame seeds=(8,8),(30,12) luma=10"
      " id_base=101 out=y+alfa\n"
      "output s1\n"
      "output s2\n"));
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(report.mentions(analysis::rules::kSegmentIdOverlap));

  // Disjoint bases stay quiet.
  const Report disjoint = analysis::verify_program(analysis::parse_program(
      "input  frame 48x32\n"
      "call   s1 = segment Copy con4 frame seeds=(2,2),(40,20) luma=10"
      " id_base=100 out=y+alfa\n"
      "call   s2 = segment Copy con4 frame seeds=(8,8),(30,12) luma=10"
      " id_base=200 out=y+alfa\n"
      "output s1\n"
      "output s2\n"));
  EXPECT_FALSE(disjoint.mentions(analysis::rules::kSegmentIdOverlap));
}

// ---- text form -------------------------------------------------------------

TEST(ProgramText, RoundTripIsStable) {
  const std::string text =
      "input  cur 48x32\n"
      "input  ref 48x32\n"
      "call   diff = inter AbsDiff cur ref\n"
      "call   blur = intra Convolve rect3x3 diff scan=col"
      " border=constant bconst=7 coeffs=1,1,1,1,1,1,1,1,1 shift=3\n"
      "call   seg  = segment Copy con4 blur seeds=(4,4),(30,20) luma=18"
      " id_base=5 out=y+alfa\n"
      "output seg\n";
  const CallProgram once = analysis::parse_program(text);
  const std::string rendered = analysis::format_program(once);
  const CallProgram twice = analysis::parse_program(rendered);
  EXPECT_EQ(rendered, analysis::format_program(twice));
  EXPECT_EQ(once.calls().size(), twice.calls().size());
  EXPECT_EQ(once.frames().size(), twice.frames().size());
  // Both parses verify identically (and cleanly).
  EXPECT_EQ(analysis::verify_program(once).error_count(), 0u);
  EXPECT_EQ(analysis::verify_program(twice).error_count(), 0u);
}

// Segment-indexed edge cases: an empty seed list (no explicit seed table)
// and the id range pushed to the top of the 16-bit space must survive the
// text form unchanged, together with every non-default segment knob.
TEST(ProgramText, SegmentIndexedEdgeCasesRoundTrip) {
  CallProgram program;
  const i32 a = program.add_input(Size{48, 32}, "a");

  alib::SegmentSpec empty_seeds;  // seeded from existing labels, no table
  empty_seeds.seeds = {};
  empty_seeds.respect_existing_labels = true;
  program.add_call(alib::Call::make_segment(
                       alib::PixelOp::Copy, alib::Neighborhood::con4(),
                       empty_seeds, ChannelMask::y(),
                       ChannelMask::y().with(Channel::Alfa)),
                   a);

  alib::SegmentSpec max_ids;  // id allocation at the top of the u16 space
  max_ids.seeds = {Point{4, 4}};
  max_ids.id_base = 65534;
  max_ids.connectivity = alib::Connectivity::Four;
  max_ids.chroma_threshold = 12;
  max_ids.write_ids = false;
  program.add_call(alib::Call::make_segment(
                       alib::PixelOp::Copy, alib::Neighborhood::con8(),
                       max_ids, ChannelMask::y(),
                       ChannelMask::y().with(Channel::Alfa)),
                   a);

  const std::string rendered = analysis::format_program(program);
  const CallProgram reparsed = analysis::parse_program(rendered);
  EXPECT_EQ(rendered, analysis::format_program(reparsed));
  ASSERT_EQ(reparsed.calls().size(), 2u);
  const alib::SegmentSpec& s0 = reparsed.calls()[0].call.segment;
  EXPECT_TRUE(s0.seeds.empty());
  EXPECT_TRUE(s0.respect_existing_labels);
  const alib::SegmentSpec& s1 = reparsed.calls()[1].call.segment;
  EXPECT_EQ(s1.id_base, 65534);
  EXPECT_EQ(s1.connectivity, alib::Connectivity::Four);
  EXPECT_EQ(s1.chroma_threshold, 12);
  EXPECT_FALSE(s1.write_ids);
  // The id-space rule still sees the reparsed form: 65534 + new ids may
  // overflow the 16-bit space, which is AEV110's job to flag.
  EXPECT_EQ(analysis::verify_program(program).mentions("AEV110"),
            analysis::verify_program(reparsed).mentions("AEV110"));
}

// Programs built through the API can reference frames that were never
// declared (that is exactly what AEV200 flags).  The text form used to
// render such references as "#<id>", which tokenize() then dropped as a
// comment — the round trip silently changed the program.  They now render
// as a reserved "undeclared" name that parses back to an unknown frame.
TEST(ProgramText, UndeclaredReferencesSurviveTheRoundTrip) {
  CallProgram program;
  const i32 a = program.add_input(Size{48, 32}, "a");
  program.add_call(alib::Call::make_intra(alib::PixelOp::Copy,
                                          alib::Neighborhood::con0()),
                   a);
  program.add_call(alib::Call::make_intra(alib::PixelOp::Copy,
                                          alib::Neighborhood::con0()),
                   /*a=*/99);  // never declared

  const std::string rendered = analysis::format_program(program);
  EXPECT_EQ(rendered.find('#'), std::string::npos)
      << "invalid refs must not render as comments:\n" << rendered;
  const CallProgram reparsed = analysis::parse_program(rendered);
  EXPECT_EQ(rendered, analysis::format_program(reparsed));
  EXPECT_EQ(reparsed.calls().size(), program.calls().size());
  // Both forms carry the same defect to the verifier.
  EXPECT_TRUE(analysis::verify_program(program).mentions(
      analysis::rules::kUseBeforeWrite));
  EXPECT_TRUE(analysis::verify_program(reparsed).mentions(
      analysis::rules::kUseBeforeWrite));
}

// Names the text grammar cannot express (spaces, '=', '#', empty) are
// synthesized away instead of corrupting the rendering.
TEST(ProgramText, UnprintableFrameNamesAreSynthesized) {
  CallProgram program;
  const i32 a = program.add_input(Size{48, 32}, "has space");
  const i32 b = program.add_input(Size{48, 32}, "#looks_like_comment");
  const i32 c = program.add_input(Size{48, 32}, "");
  const i32 r = program.add_call(alib::Call::make_inter(alib::PixelOp::Add),
                                 a, b);
  program.set_frame_name(r, "key=value");
  program.add_call(alib::Call::make_intra(alib::PixelOp::Copy,
                                          alib::Neighborhood::con0()),
                   c);
  program.mark_output(r);

  const std::string rendered = analysis::format_program(program);
  const CallProgram reparsed = analysis::parse_program(rendered);
  EXPECT_EQ(rendered, analysis::format_program(reparsed));
  EXPECT_EQ(reparsed.frames().size(), program.frames().size());
  EXPECT_EQ(reparsed.calls().size(), program.calls().size());
  EXPECT_EQ(analysis::verify_program(reparsed).error_count(),
            analysis::verify_program(program).error_count());
}

// Duplicate names are legal in the API (names are cosmetic there) but
// ambiguous in text; rendering must uniquify instead of silently rebinding
// references on the next parse.
TEST(ProgramText, DuplicateFrameNamesAreUniquified) {
  CallProgram program;
  const i32 a = program.add_input(Size{48, 32}, "frame");
  const i32 b = program.add_input(Size{48, 32}, "frame");
  const i32 r = program.add_call(alib::Call::make_inter(alib::PixelOp::AbsDiff),
                                 a, b);
  program.mark_output(r);

  const std::string rendered = analysis::format_program(program);
  const CallProgram reparsed = analysis::parse_program(rendered);
  EXPECT_EQ(rendered, analysis::format_program(reparsed));
  ASSERT_EQ(reparsed.frames().size(), 3u);
  EXPECT_NE(reparsed.frame_name(0), reparsed.frame_name(1));
  // The inter call still reads two distinct frames (no AEV210 aliasing).
  EXPECT_EQ(reparsed.calls()[0].input_a, 0);
  EXPECT_EQ(reparsed.calls()[0].input_b, 1);
  EXPECT_EQ(analysis::verify_program(reparsed).error_count(), 0u);
}

TEST(ProgramText, SyntaxErrorsCarryLineNumbers) {
  try {
    analysis::parse_program("input a 48x32\nfrobnicate b\n");
    FAIL() << "unknown statement must throw";
  } catch (const analysis::ParseError& error) {
    EXPECT_EQ(error.line(), 2);
  }
  EXPECT_THROW(analysis::parse_program("input a 48by32\n"),
               analysis::ParseError);
  EXPECT_THROW(analysis::parse_program("call x = intra NoSuchOp con0 a\n"),
               analysis::ParseError);
}

TEST(ProgramText, SemanticProblemsSurviveToTheVerifier) {
  // Unknown frame names parse fine; the verifier reports AEV200.
  const Report report = analysis::verify_program(analysis::parse_program(
      "input  a 48x32\n"
      "call   x = intra Copy con0 ghost\n"
      "output x\n"));
  EXPECT_TRUE(report.mentions(analysis::rules::kUseBeforeWrite));
}

}  // namespace
}  // namespace ae
