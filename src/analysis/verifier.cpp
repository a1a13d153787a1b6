#include "analysis/verifier.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/rules.hpp"
#include "core/scanspace.hpp"

namespace ae::analysis {

namespace {

using alib::Call;
using alib::Mode;
using alib::PixelOp;

std::string size_str(Size s) {
  std::ostringstream os;
  os << s.width << 'x' << s.height;
  return os.str();
}

/// Checks that need no frame geometry: mode/op compatibility, channel
/// masks, op parameters, segment spec shape and id-space accounting.
void check_structure(const Call& call, i32 idx, Report& r) {
  const bool has_nbhd = call.mode != Mode::Inter;

  // AEV100 — op set of the addressing mode.
  switch (call.mode) {
    case Mode::Inter:
      if (!alib::is_inter_op(call.op))
        r.add(Severity::Error, rules::kModeOpMismatch, idx,
              "op " + alib::to_string(call.op) + " is not an inter op",
              "use Mode::Intra, or pick a two-frame op");
      break;
    case Mode::Intra:
      if (!alib::is_intra_op(call.op))
        r.add(Severity::Error, rules::kModeOpMismatch, idx,
              "op " + alib::to_string(call.op) + " is not an intra op",
              "use Mode::Inter, or pick a neighborhood op");
      break;
    case Mode::Segment:
      if (!alib::is_intra_op(call.op))
        r.add(Severity::Error, rules::kModeOpMismatch, idx,
              "segment mode runs intra-style ops, not " +
                  alib::to_string(call.op),
              "pick a neighborhood op for the segment expansion");
      break;
  }

  // AEV103 — channel-mask contract.
  if (call.in_channels.empty())
    r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
          "operation reads no channel", "select at least one input channel");
  if (call.out_channels.empty() && call.op != PixelOp::Histogram &&
      call.op != PixelOp::Sad)
    r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
          "operation writes no channel",
          "select an output channel (only Histogram/Sad are side-port-only)");
  if (call.op == PixelOp::Homogeneity || call.op == PixelOp::GradientPack) {
    if (!call.out_channels.contains(Channel::Alfa) ||
        !call.out_channels.contains(Channel::Aux))
      r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
            alib::to_string(call.op) + " writes the Alfa and Aux planes",
            "add Alfa and Aux to the output mask");
  }
  if (call.op == PixelOp::TableLookup) {
    if (!call.in_channels.contains(Channel::Alfa) ||
        !call.out_channels.contains(Channel::Alfa))
      r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
            "TableLookup reads and writes the Alfa channel",
            "add Alfa to both masks");
  }
  if (call.op == PixelOp::GmeAccum || call.op == PixelOp::GmeAccumAffine ||
      call.op == PixelOp::GmePerspective) {
    if (!call.in_channels.contains(Channel::Y))
      r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
            alib::to_string(call.op) + " reads Y residuals",
            "add Y to the input mask");
  }
  if (call.mode == Mode::Segment && call.segment.write_ids &&
      !call.out_channels.contains(Channel::Alfa))
    r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
          "write_ids requires Alfa in the output mask",
          "add Alfa to the output mask or clear segment.write_ids");

  // AEV104 — op parameters.
  if (call.params.shift < 0 || call.params.shift >= 32)
    r.add(Severity::Error, rules::kOpParamsInvalid, idx,
          "shift " + std::to_string(call.params.shift) +
              " outside [0, 32)",
          "the barrel shifter takes 5-bit shift amounts");
  if (call.op == PixelOp::Convolve && has_nbhd &&
      call.params.coeffs.size() != call.nbhd.size())
    r.add(Severity::Error, rules::kOpParamsInvalid, idx,
          "Convolve has " + std::to_string(call.params.coeffs.size()) +
              " coefficient(s) for " + std::to_string(call.nbhd.size()) +
              " neighborhood offset(s)",
          "supply one coefficient per offset, in (dy, dx) order");
  if ((call.op == PixelOp::GradientX || call.op == PixelOp::GradientY ||
       call.op == PixelOp::GradientMag || call.op == PixelOp::GradientPack) &&
      has_nbhd && !(call.nbhd == alib::Neighborhood::con8()))
    r.add(Severity::Error, rules::kOpParamsInvalid, idx,
          alib::to_string(call.op) + " is defined on CON_8, got " +
              (call.nbhd.name().empty() ? "a custom shape" : call.nbhd.name()),
          "use Neighborhood::con8()");
  if (call.op == PixelOp::Homogeneity && has_nbhd && call.nbhd.size() <= 1)
    r.add(Severity::Error, rules::kOpParamsInvalid, idx,
          "Homogeneity needs at least one neighbor",
          "use CON_4 / CON_8 or a larger neighborhood");
  if ((call.op == PixelOp::Threshold || call.op == PixelOp::DiffMask ||
       call.op == PixelOp::Homogeneity || call.op == PixelOp::GmeAccum ||
       call.op == PixelOp::GmeAccumAffine ||
       call.op == PixelOp::GmePerspective) &&
      call.params.threshold < 0)
    r.add(Severity::Error, rules::kOpParamsInvalid, idx,
          "threshold " + std::to_string(call.params.threshold) +
              " must be >= 0",
          "thresholds are unsigned channel distances");
  if (call.op == PixelOp::TableLookup && call.params.table.empty())
    r.add(Severity::Error, rules::kOpParamsInvalid, idx,
          "TableLookup needs a translation table",
          "fill params.table (ids beyond its size pass through)");
  if (call.op == PixelOp::GmePerspective && call.params.warp_params.size() != 8)
    r.add(Severity::Error, rules::kOpParamsInvalid, idx,
          "GmePerspective needs the 8 current warp parameters, got " +
              std::to_string(call.params.warp_params.size()),
          "supply [a0..a5, c0, c1] in params.warp_params");

  // AEV105 — the 9-line hardware limit.  The Neighborhood constructor
  // enforces this too; the mirror here keeps the verifier sound for call
  // descriptors deserialized from outside the C++ builders.
  if (has_nbhd && call.nbhd.height() > alib::kMaxNeighborhoodLines)
    r.add(Severity::Error, rules::kWindowExceedsLimit, idx,
          "neighborhood spans " + std::to_string(call.nbhd.height()) +
              " lines; the engine holds " +
              std::to_string(alib::kMaxNeighborhoodLines),
          "split the operator or rotate it into the scan direction");

  // Fused pointwise stages (aeopt).  AEV100 guards the mode (segment calls
  // copy unprocessed pixels wholesale, which a stage would corrupt); the
  // per-stage checks reuse the AEV103/AEV104 contracts on the stage's own
  // masks and parameters, with the stage's implicit CON_0 neighborhood.
  if (!call.fused.empty() && call.mode == Mode::Segment)
    r.add(Severity::Error, rules::kModeOpMismatch, idx,
          "fused stages require streamed (inter/intra) addressing",
          "unfuse the stages or switch the call off segment mode");
  for (const alib::FusedStage& stage : call.fused) {
    const std::string label = "fused stage " + alib::to_string(stage.op);
    if (!alib::is_intra_op(stage.op))
      r.add(Severity::Error, rules::kModeOpMismatch, idx,
            label + " is not an intra (pointwise) op",
            "fused stages run the CON_0 form of intra ops");
    if (stage.op == PixelOp::GradientX || stage.op == PixelOp::GradientY ||
        stage.op == PixelOp::GradientMag ||
        stage.op == PixelOp::GradientPack || stage.op == PixelOp::Homogeneity)
      r.add(Severity::Error, rules::kOpParamsInvalid, idx,
            label + " needs a real neighborhood; a fused stage sees only "
                    "the result pixel",
            "keep neighborhood ops as standalone calls");
    if (stage.in.empty())
      r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
            label + " reads no channel", "select at least one input channel");
    if (stage.out.empty() && stage.op != PixelOp::Histogram)
      r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
            label + " writes no channel",
            "select an output channel (only Histogram is side-port-only)");
    if (stage.params.shift < 0 || stage.params.shift >= 32)
      r.add(Severity::Error, rules::kOpParamsInvalid, idx,
            label + " shift " + std::to_string(stage.params.shift) +
                " outside [0, 32)",
            "the barrel shifter takes 5-bit shift amounts");
    if (stage.op == PixelOp::Convolve && stage.params.coeffs.size() != 1)
      r.add(Severity::Error, rules::kOpParamsInvalid, idx,
            label + " has " + std::to_string(stage.params.coeffs.size()) +
                " coefficient(s) for the single CON_0 offset",
            "supply exactly one coefficient");
    if ((stage.op == PixelOp::Threshold || stage.op == PixelOp::DiffMask) &&
        stage.params.threshold < 0)
      r.add(Severity::Error, rules::kOpParamsInvalid, idx,
            label + " threshold " + std::to_string(stage.params.threshold) +
                " must be >= 0",
            "thresholds are unsigned channel distances");
    if (stage.op == PixelOp::TableLookup) {
      if (stage.params.table.empty())
        r.add(Severity::Error, rules::kOpParamsInvalid, idx,
              label + " needs a translation table",
              "fill params.table (ids beyond its size pass through)");
      if (!stage.in.contains(Channel::Alfa) ||
          !stage.out.contains(Channel::Alfa))
        r.add(Severity::Error, rules::kChannelMaskInvalid, idx,
              label + " reads and writes the Alfa channel",
              "add Alfa to both stage masks");
    }
  }

  if (call.mode == Mode::Segment) {
    // AEV109 — segment spec shape.
    if (call.segment.seeds.empty())
      r.add(Severity::Error, rules::kSegmentSpecInvalid, idx,
            "segment mode needs at least one seed",
            "supply segment.seeds");
    if (call.segment.luma_threshold < 0)
      r.add(Severity::Error, rules::kSegmentSpecInvalid, idx,
            "segment luma threshold " +
                std::to_string(call.segment.luma_threshold) + " must be >= 0",
            "thresholds are unsigned luma distances");

    // AEV110 — worst case every seed starts its own segment; the id space
    // is the 16-bit Alfa plane minus the reserved id 0.
    const u64 worst = static_cast<u64>(call.segment.id_base) +
                      static_cast<u64>(call.segment.seeds.size());
    if (worst > 0xFFFFu)
      r.add(Severity::Error, rules::kSegmentTableOverflow, idx,
            "id_base " + std::to_string(call.segment.id_base) + " + " +
                std::to_string(call.segment.seeds.size()) +
                " seed(s) can exceed the 65535-id segment table",
            "lower id_base or relabel earlier results via TableLookup");
  }
}

/// Checks against the input frame geometry and the engine configuration.
void check_geometry(const Call& call, Size a, const Size* b, i32 idx,
                    const VerifyOptions& options, Report& r) {
  const core::EngineConfig& cfg = options.config;

  // AEV107 — degenerate frames poison every later bound; stop here.
  if (a.width <= 0 || a.height <= 0) {
    r.add(Severity::Error, rules::kDegenerateFrame, idx,
          "input frame is empty (" + size_str(a) + ")",
          "frames need a positive width and height");
    return;
  }
  if (b != nullptr && (b->width <= 0 || b->height <= 0)) {
    r.add(Severity::Error, rules::kDegenerateFrame, idx,
          "second input frame is empty (" + size_str(*b) + ")",
          "frames need a positive width and height");
    return;
  }

  // AEV102 — the bank pairs mirror each other; inter frames match exactly.
  if (call.mode == Mode::Inter && b != nullptr && !(*b == a))
    r.add(Severity::Error, rules::kFrameSizeMismatch, idx,
          "inter inputs differ: " + size_str(a) + " vs " + size_str(*b),
          "crop or scale to a common size before the call");

  // AEV108 — the engine configuration bounds: line buffers and ZBT banks.
  const auto check_config_fit = [&](Size s, const char* which) {
    const core::FrameFit fit = core::frame_fit(cfg, s);
    if (!fit.fits_lines)
      r.add(Severity::Error, rules::kFrameExceedsConfig, idx,
            std::string(which) + " frame " + size_str(s) +
                " exceeds the " + std::to_string(cfg.max_line_pixels) +
                "-pixel line-buffer sizing",
            "tile the frame into engine-sized sub-frames");
    if (!fit.fits_bank)
      r.add(Severity::Error, rules::kFrameExceedsConfig, idx,
            std::string(which) + " frame " + size_str(s) +
                " does not fit a ZBT bank pair (" +
                std::to_string(cfg.zbt_bank_bytes) + " bytes/bank)",
            "tile the frame or configure larger banks");
  };
  check_config_fit(a, "input");
  if (b != nullptr && !(*b == a)) check_config_fit(*b, "second input");

  if (call.mode != Mode::Inter) {
    // AEV106 — a window larger than the frame border-resolves every access.
    if (call.nbhd.width() > a.width || call.nbhd.height() > a.height)
      r.add(Severity::Warning, rules::kWindowExceedsFrame, idx,
            "neighborhood bounding box " +
                std::to_string(call.nbhd.width()) + "x" +
                std::to_string(call.nbhd.height()) +
                " exceeds the frame " + size_str(a),
            "every access resolves to the border policy; the kernel "
            "degenerates");

    // AEV109 — seeds must lie in the frame.
    if (call.mode == Mode::Segment) {
      for (const Point seed : call.segment.seeds)
        if (!a.contains(seed))
          r.add(Severity::Error, rules::kSegmentSpecInvalid, idx,
                "seed (" + std::to_string(seed.x) + ", " +
                    std::to_string(seed.y) + ") outside the frame " +
                    size_str(a),
                "seeds index the input frame");
    }
  }

  const core::ScanSpace space(a, call.scan);

  // AEV112 — the IIM line window.  Intra calls keep the whole scan-space
  // neighborhood span resident; the dynamic counterpart is the process
  // unit's capacity assert.  validate_call only bounds the image-space
  // height, so a wide window under a column-major scan passes the dynamic
  // precheck and dies mid-flight — exactly what a static pass must catch.
  if (call.mode == Mode::Intra) {
    const i32 span =
        space.lines_before(call.nbhd) + space.lines_after(call.nbhd) + 1;
    if (span > cfg.iim_lines)
      r.add(Severity::Error, rules::kIimWindowInfeasible, idx,
            "neighborhood spans " + std::to_string(span) +
                " scan-space line(s) under " + alib::to_string(call.scan) +
                " scan; the IIM holds " + std::to_string(cfg.iim_lines),
            "rotate the scan direction to run along the window's long axis");
  }

  // AEV111 — a frame that is not strip-aligned in scan space ends in a
  // short final strip: legal, but it costs one extra DMA interrupt.
  if (cfg.strip_lines > 0 &&
      space.line_count() % cfg.strip_lines != 0)
    r.add(Severity::Warning, rules::kStripUnaligned, idx,
          "scan-space line count " + std::to_string(space.line_count()) +
              " is not a multiple of the " +
              std::to_string(cfg.strip_lines) + "-line strip",
          "strip-aligned frames transfer without a partial-strip interrupt");
}

/// AEV210 — the duplicate-slot residency condition: an inter call whose two
/// inputs are one frame claims one ZBT bank pair twice.
void check_aliasing(const Call& call, bool inputs_alias, i32 idx, Report& r) {
  if (call.mode == Mode::Inter && inputs_alias)
    r.add(Severity::Error, rules::kZbtDuplicateSlot, idx,
          "inter call reads the same frame through both inputs; one "
          "on-board copy would satisfy both bank-pair claims",
          "copy the frame first, or use an intra op on a single input");
}

}  // namespace

Report verify_call(const Call& call, Size a, const Size* b, bool inputs_alias,
                   const VerifyOptions& options) {
  Report r;
  // AEV101 — arity before anything consumes `b`.
  if (call.mode == Mode::Inter && b == nullptr)
    r.add(Severity::Error, rules::kArityMismatch, 0,
          "inter mode needs a second input frame",
          "pass both frames, or switch to Mode::Intra");
  if (call.mode != Mode::Inter && b != nullptr)
    r.add(Severity::Warning, rules::kArityMismatch, 0,
          "second input frame is ignored outside inter mode",
          "drop the extra frame reference");
  check_structure(call, 0, r);
  check_geometry(call, a, call.mode == Mode::Inter ? b : nullptr, 0, options,
                 r);
  check_aliasing(call, inputs_alias, 0, r);
  return r;
}

Report verify_program(const CallProgram& program,
                      const VerifyOptions& options) {
  Report r;
  const auto& frames = program.frames();
  const auto& calls = program.calls();

  std::vector<bool> consumed(frames.size(), false);

  for (std::size_t i = 0; i < calls.size(); ++i) {
    const ProgramCall& pc = calls[i];
    const i32 idx = static_cast<i32>(i);

    // AEV200 — a frame reference is readable here iff it exists and its
    // producer (if any) ran strictly earlier.
    const auto readable = [&](i32 f) {
      return program.valid_frame(f) &&
             frames[static_cast<std::size_t>(f)].producer < idx;
    };
    const auto check_ref = [&](i32 f, const char* which) {
      if (f == kNoFrame) return false;
      if (!readable(f)) {
        r.add(Severity::Error, rules::kUseBeforeWrite, idx,
              std::string(which) + " reads frame " + program.frame_name(f) +
                  (program.valid_frame(f) ? " before any call produced it"
                                          : ", which does not exist"),
              "reorder the program so producers precede consumers");
        return false;
      }
      consumed[static_cast<std::size_t>(f)] = true;
      return true;
    };
    const bool a_ok = check_ref(pc.input_a, "input a");
    const bool b_ok = check_ref(pc.input_b, "input b");

    // AEV101 — arity in program form.
    if (pc.call.mode == Mode::Inter && pc.input_b == kNoFrame)
      r.add(Severity::Error, rules::kArityMismatch, idx,
            "inter call has no second input frame",
            "reference both frames, or switch to Mode::Intra");
    if (pc.call.mode != Mode::Inter && pc.input_b != kNoFrame)
      r.add(Severity::Warning, rules::kArityMismatch, idx,
            "second input frame is ignored outside inter mode",
            "drop the extra frame reference");

    check_structure(pc.call, idx, r);
    if (a_ok) {
      const Size a = frames[static_cast<std::size_t>(pc.input_a)].size;
      Size b_size{};
      const Size* b = nullptr;
      if (pc.call.mode == Mode::Inter && b_ok) {
        b_size = frames[static_cast<std::size_t>(pc.input_b)].size;
        b = &b_size;
      }
      check_geometry(pc.call, a, b, idx, options, r);
    }
    check_aliasing(pc.call, pc.input_a == pc.input_b && pc.input_a != kNoFrame,
                   idx, r);
  }

  // AEV201 — dead results, only meaningful once outputs are declared.
  if (!program.outputs().empty()) {
    std::vector<bool> is_output(frames.size(), false);
    for (const i32 f : program.outputs())
      if (program.valid_frame(f)) is_output[static_cast<std::size_t>(f)] = true;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (frames[f].producer == kNoFrame) continue;  // external input
      if (consumed[f] || is_output[f]) continue;
      r.add(Severity::Warning, rules::kDeadResult, frames[f].producer,
            "result frame " + program.frame_name(static_cast<i32>(f)) +
                " is never consumed and is not a program output",
            "drop the call or mark its output");
    }
  }

  // AEV211 — overlapping segment id ranges across the program.
  struct IdRange {
    i32 call_index;
    u64 lo, hi;  // inclusive id range (id_base + 1 .. id_base + seeds)
  };
  std::vector<IdRange> ranges;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i].call;
    if (c.mode != Mode::Segment || !c.segment.write_ids ||
        c.segment.seeds.empty())
      continue;
    ranges.push_back(IdRange{static_cast<i32>(i),
                             static_cast<u64>(c.segment.id_base) + 1,
                             static_cast<u64>(c.segment.id_base) +
                                 c.segment.seeds.size()});
  }
  for (std::size_t i = 0; i < ranges.size(); ++i)
    for (std::size_t j = i + 1; j < ranges.size(); ++j)
      if (ranges[i].lo <= ranges[j].hi && ranges[j].lo <= ranges[i].hi)
        r.add(Severity::Warning, rules::kSegmentIdOverlap, ranges[j].call_index,
              "segment id range [" + std::to_string(ranges[j].lo) + ", " +
                  std::to_string(ranges[j].hi) + "] overlaps call " +
                  std::to_string(ranges[i].call_index) + "'s range",
              "offset id_base so incremental labelings stay disjoint");

  return r;
}

void enforce(const Report& report) {
  if (report.has_errors()) throw VerificationError(report);
}

}  // namespace ae::analysis
