#include "analysis/lints.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/alloc.hpp"
#include "analysis/domain.hpp"
#include "analysis/rules.hpp"
#include "core/scanspace.hpp"
#include "core/timing_model.hpp"

namespace ae::analysis {
namespace {

bool is_pointwise(const alib::Call& call) {
  return call.mode == alib::Mode::Intra && call.nbhd.size() == 1 &&
         call.nbhd.contains(Point{0, 0});
}

// AEW300 — inputs the residency schedule classifies Reused: the cold
// driver's upload moves words an aware driver provably keeps on board.
void lint_redundant_reupload(const CallProgram& program,
                             const ProgramPlan& plan, Report& report) {
  for (const CallPlan& cp : plan.calls) {
    for (const InputPlan& ip : cp.inputs) {
      if (ip.kind != TransferKind::Reused) continue;
      std::ostringstream os;
      os << "input '" << program.frame_name(ip.frame)
         << "' is already resident in an input bank pair; the " << ip.words
         << "-word PCI upload is avoidable";
      report.add(Severity::Warning, rules::kRedundantReupload, cp.call_index,
                 os.str(),
                 "run the program through a residency-aware session "
                 "(core::EngineSession)");
    }
  }
}

// AEW301 — a result no later call reads and the host never collects, yet
// a later call overwrites: the store and its readback are dead work.
void lint_dead_store_overwrite(const CallProgram& program, Report& report) {
  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    if (!dead_result(program, i)) continue;
    const auto index = static_cast<i32>(i);
    std::ostringstream os;
    os << "result '" << program.frame_name(program.calls()[i].output)
       << "' is never read and call " << index + 1
       << " overwrites the result banks; the store and readback are dead";
    report.add(Severity::Warning, rules::kDeadStoreOverwrite, index, os.str(),
               "drop the call, or declare its result a program output");
  }
}

// AEW302 — per-strip DMA busy time below the interrupt overhead: the bus
// spends more cycles on handshakes than on words.
void lint_strip_below_break_even(const CallProgram& program,
                                 const PlanOptions& options, Report& report) {
  const core::EngineConfig& config = options.config;
  const double wpc = core::timing_detail::words_per_cycle(config);
  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    const ProgramCall& pc = program.calls()[i];
    if (!program.valid_frame(pc.input_a)) continue;
    const Size frame =
        program.frames()[static_cast<std::size_t>(pc.input_a)].size;
    if (frame.area() <= 0) continue;
    const core::ScanSpace space(frame, pc.call.scan);
    const u64 strip_busy = core::timing_detail::ceil_div_words(
        2.0 * config.strip_lines * space.line_length(), wpc);
    if (strip_busy >= config.interrupt_overhead_cycles) continue;
    std::ostringstream os;
    os << "strip DMA busy time (" << strip_busy
       << " cycles) is below the per-strip interrupt overhead ("
       << config.interrupt_overhead_cycles
       << " cycles); handshakes dominate the transfer";
    report.add(Severity::Warning, rules::kStripBelowBreakEven,
               static_cast<i32>(i), os.str(),
               "widen the scan lines (or scan the long image axis) so each "
               "strip amortizes its handshake");
  }
}

// AEW303 — a result consumed solely by the immediately following pointwise
// call: the pair is fusable into one pass, saving a readback + re-upload.
// The predicate is shared with the aeopt fuse rewrite
// (fusable_pointwise_pair below), so the lint never flags a pair the
// optimizer could not fold bit-exactly.
void lint_fusable_pointwise_pair(const CallProgram& program, Report& report) {
  for (std::size_t i = 0; i + 1 < program.calls().size(); ++i) {
    const ProgramCall& pc = program.calls()[i];
    if (!fusable_pointwise_pair(program, i)) continue;
    std::ostringstream os;
    os << "result '" << program.frame_name(pc.output)
       << "' is consumed only by the pointwise call " << i + 1
       << "; the pair is fusable into one pass";
    report.add(Severity::Warning, rules::kFusablePointwisePair,
               static_cast<i32>(i), os.str(),
               "fold the pointwise op into this call's kernel to save the "
               "result round trip");
  }
}

// AEW304 — a transferred input was resident after an earlier call but got
// evicted before this use, and hoisting the consumer directly after that
// call is dependence-legal: a reorder recovers the reuse.
void lint_reorder_for_reuse(const CallProgram& program,
                            const ProgramPlan& plan, Report& report) {
  for (const ReorderSite& site : reorder_for_reuse_sites(program, plan)) {
    std::ostringstream os;
    os << "input '" << program.frame_name(site.frame)
       << "' was resident after call " << site.resident_at
       << " but is evicted by the time call " << site.call
       << " reads it; moving the call directly after call "
       << site.resident_at
       << " is dependence-legal and recovers the reuse";
    report.add(Severity::Warning, rules::kReorderForReuse,
               static_cast<i32>(site.call), os.str(),
               "reorder the call next to the last resident use of its "
               "input");
  }
}

// AEW305 — a segment criterion the value domain proves admits every
// neighbor of its actual input: the expansion floods the frame and the cost
// envelope degenerates to its worst case.  The predicate is
// analysis::segment_criterion_vacuous — on unconstrained (top) inputs it
// degenerates to the syntactic form this lint originally checked (luma
// threshold >= 255, chroma disabled or >= 255), and on analyzed inputs it
// additionally catches criteria that are only vacuous because the input's
// value intervals are narrow.
void lint_segment_vacuous_criterion(const CallProgram& program,
                                    const ProgramDomain& domain,
                                    Report& report) {
  const bool aligned = domain.frames.size() == program.frames().size();
  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    const ProgramCall& pc = program.calls()[i];
    const alib::Call& call = pc.call;
    if (call.mode != alib::Mode::Segment) continue;
    const FrameDomain input =
        aligned && program.valid_frame(pc.input_a)
            ? domain.frames[static_cast<std::size_t>(pc.input_a)]
            : FrameDomain::top();
    if (!segment_criterion_vacuous(call.segment, input)) continue;
    const alib::SegmentSpec& spec = call.segment;
    const ChannelInterval& y = input.of(Channel::Y);
    std::ostringstream os;
    os << "segment criterion admits every neighbor of this input (largest "
          "possible luma step "
       << (y.uniform ? i64{0} : y.width()) << " is within luma threshold "
       << spec.luma_threshold
       << (spec.chroma_threshold < 0 ? ", chroma test disabled"
                                     : ", chroma test equally saturated")
       << "); the expansion floods the frame and the reachability "
          "pre-pass cannot tighten the envelope below the full-frame "
          "extreme";
    report.add(Severity::Warning, rules::kSegmentVacuousCriterion,
               static_cast<i32>(i), os.str(),
               "tighten the luma/chroma thresholds below the input's value "
               "spread so the criterion can reject");
  }
}

// AEW306 — a streamed call the value domain proves writes back exactly its
// first input, pixel for pixel: the store and readback are pure overhead,
// and the aeopt `range` tier can drop the call bit-exactly.
void lint_range_identity_op(const CallProgram& program,
                            const ProgramDomain& domain, Report& report) {
  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    std::string why;
    if (!range_identity_call(program, static_cast<i32>(i), domain, &why))
      continue;
    std::ostringstream os;
    os << "call writes back exactly its input (" << why
       << "); the whole pass is droppable bit-exactly";
    report.add(Severity::Warning, rules::kRangeIdentityOp,
               static_cast<i32>(i), os.str(),
               "drop the call, or run the program through aeopt's range "
               "tier");
  }
}

// AEW307 — an input the LRU schedule transfers but the static allocator
// (same call order, Belady eviction) proves can be Reused/Relocated: the
// upload is avoidable purely through better eviction decisions.  Distinct
// from AEW300 (the LRU driver already reuses it) and AEW304 (recovery needs
// a reorder): this one needs neither a rewrite nor luck — just a plan.
void lint_allocatable_residency(const CallProgram& program,
                                const ProgramPlan& plan,
                                const PlanOptions& options, Report& report) {
  AllocOptions alloc_options;
  alloc_options.plan = options;
  alloc_options.schedule = false;  // identity order: aligns with plan.calls
  const ResidencyPlan alloc = allocate_residency(program, alloc_options);
  if (alloc.words_saved == 0) return;  // allocator fell back to the LRU plan
  for (std::size_t i = 0; i < plan.calls.size(); ++i) {
    const CallPlan& cp = plan.calls[i];
    const CallAssignment& ca = alloc.assignments[i];
    for (std::size_t k = 0;
         k < cp.inputs.size() && k < ca.inputs.size(); ++k) {
      if (cp.inputs[k].kind != TransferKind::Transferred) continue;
      if (ca.inputs[k].kind == TransferKind::Transferred) continue;
      std::ostringstream os;
      os << "input '" << program.frame_name(cp.inputs[k].frame)
         << "' is transferred under LRU eviction but "
         << to_string(ca.inputs[k].kind)
         << " under the static allocator; the " << cp.inputs[k].words
         << "-word PCI upload is avoidable in place";
      report.add(Severity::Warning, rules::kAllocatableResidency,
                 cp.call_index, os.str(),
                 "run the program through plan-directed execution "
                 "(EngineFarm residency_plan / aealloc)");
    }
  }
}

}  // namespace

Report lint_program(const CallProgram& program, const ProgramPlan& plan,
                    const PlanOptions& options) {
  Report report;
  lint_redundant_reupload(program, plan, report);
  lint_dead_store_overwrite(program, report);
  lint_strip_below_break_even(program, options, report);
  lint_fusable_pointwise_pair(program, report);
  lint_reorder_for_reuse(program, plan, report);
  const ProgramDomain domain = analyze_domain(program);
  lint_segment_vacuous_criterion(program, domain, report);
  lint_range_identity_op(program, domain, report);
  lint_allocatable_residency(program, plan, options, report);
  return report;
}

Report lint_program(const CallProgram& program, const PlanOptions& options) {
  return lint_program(program, plan_program(program, options), options);
}

bool dead_result(const CallProgram& program, std::size_t i) {
  if (program.outputs().empty()) return false;
  if (i + 1 >= program.calls().size()) return false;  // nothing overwrites it
  const i32 output = program.calls()[i].output;
  return !is_program_output(program, output) &&
         consumers_of(program, output).empty();
}

std::vector<ReorderSite> reorder_for_reuse_sites(const CallProgram& program,
                                                 const ProgramPlan& plan) {
  std::vector<ReorderSite> sites;
  for (std::size_t j = 0; j < plan.calls.size(); ++j) {
    const CallPlan& cp = plan.calls[j];
    for (const InputPlan& ip : cp.inputs) {
      if (ip.kind != TransferKind::Transferred || ip.frame < 0) continue;
      // Latest earlier call after which the frame was still on board.
      i32 resident_at = kNoFrame;
      for (std::size_t i = 0; i < j; ++i) {
        const std::vector<i32>& res = plan.calls[i].resident_after;
        if (std::find(res.begin(), res.end(), ip.frame) != res.end())
          resident_at = static_cast<i32>(i);
      }
      if (resident_at == kNoFrame || resident_at == static_cast<i32>(j) - 1)
        continue;  // never resident, or the eviction is this call's own doing
      // Hoisting call j to directly follow `resident_at` is legal iff every
      // input of j is produced no later than `resident_at` (externals have
      // producer kNoFrame).
      const bool legal = std::none_of(
          cp.inputs.begin(), cp.inputs.end(), [&](const InputPlan& other) {
            return program.valid_frame(other.frame) &&
                   program.frames()[static_cast<std::size_t>(other.frame)]
                           .producer > resident_at;
          });
      if (legal) sites.push_back(ReorderSite{j, ip.frame, resident_at});
    }
  }
  return sites;
}

bool fusable_pointwise_pair(const CallProgram& program, std::size_t i) {
  if (i + 1 >= program.calls().size()) return false;
  const ProgramCall& pc = program.calls()[i];
  // Segment producers are unfusable: the standalone consumer transforms the
  // wholesale-copied unprocessed pixels and the id-written Alfa plane, which
  // a fused stage (running on processed pixels, before ids land) never sees.
  if (pc.call.mode == alib::Mode::Segment) return false;
  if (is_program_output(program, pc.output)) return false;
  const std::vector<i32> readers = consumers_of(program, pc.output);
  if (readers.size() != 1 || readers[0] != static_cast<i32>(i) + 1)
    return false;
  const ProgramCall& next = program.calls()[i + 1];
  if (!is_pointwise(next.call)) return false;
  // The consumer must read the result through its real input; a reference
  // through the ignored second input of an intra call is not a dataflow
  // edge fusion can absorb.
  if (next.input_a != pc.output || next.input_b != kNoFrame) return false;
  // The consumer's base op (and any stages already fused onto it) must be a
  // legal fused stage — a CON_0-valid pointwise op.
  alib::FusedStage stage;
  stage.op = next.call.op;
  stage.params = next.call.params;
  stage.in = next.call.in_channels;
  stage.out = next.call.out_channels;
  try {
    alib::validate_fused_stage(stage);
    for (const alib::FusedStage& s : next.call.fused)
      alib::validate_fused_stage(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace ae::analysis
