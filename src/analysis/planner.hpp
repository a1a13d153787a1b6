// aeplan — static cost/residency planning of AddressLib call programs.
//
// The complement of the verifier: aeverify answers "is this program
// legal?", the planner answers "how expensive is it, and how should it be
// scheduled?" — with no backend and no pixel data, by abstract
// interpretation over a CallProgram:
//
//   * a per-call and whole-program COST ENVELOPE — DMA words moved, ZBT
//     transactions, IIM/OIM line-occupancy high-water marks, and cycle
//     lower/upper bounds.  Streamed (inter/intra) calls get the closed-form
//     timing (core/timing_model.hpp, validated against the cycle simulator
//     within a few percent) widened by a symmetric margin; segment calls
//     additionally span the traversal between its static extremes (empty
//     expansion vs. a flood of the whole frame, every neighbor tested).
//     The soundness contract — the cycle-accurate simulator's measured cost
//     lands inside [lower, upper] for every legal call — is gated by
//     tests/plan_calibration_test.cpp over the 520 known-good fuzz
//     programs.
//
//   * a BANK-RESIDENCY SCHEDULE — a replay of the call sequence through
//     core::ResidencyTable (core/residency.hpp), the table EngineSession
//     drives, keyed by frame id instead of content hash.  Each call
//     input is classified Transferred / Reused / Relocated, which prices
//     the avoidable inter-call PCI traffic and feeds the AEW3xx lints
//     (lints.hpp) and the residency allocator (alloc.hpp).
//
// The planner prices; it never diagnoses — findings derived from a plan
// live in lints.hpp so the warning catalog stays in one place.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "addresslib/segment.hpp"
#include "analysis/program.hpp"
#include "core/config.hpp"
#include "core/residency.hpp"

namespace ae::analysis {

struct PlanOptions {
  /// Engine model the program is priced against.
  core::EngineConfig config{};
  /// Symmetric relative margin applied around the closed-form timing when
  /// widening point values into bounds.  The default covers the validated
  /// analytic-vs-cycle-simulator deviation (< 5% streamed, < 8% segment)
  /// with headroom; the calibration gate holds it sound.
  double margin = 0.10;
};

/// Inclusive static bounds on one cost metric.
struct CostBound {
  u64 lower = 0;
  u64 upper = 0;

  bool contains(u64 value) const { return lower <= value && value <= upper; }
};

/// Static cost envelope of one call (or, summed, of a whole program) under
/// a cold driver: every input transferred, every result read back.
struct CostEnvelope {
  CostBound cycles;         ///< includes the per-call setup overhead
  u64 cycles_estimate = 0;  ///< point estimate (bench/plan_accuracy gates it)
  u64 dma_words_in = 0;     ///< PCI words host -> board (exact)
  u64 dma_words_out = 0;    ///< PCI words board -> host (exact)
  CostBound zbt_reads;      ///< processing-side ZBT read transactions
  CostBound zbt_writes;     ///< processing-side ZBT write transactions
  i32 iim_peak_lines = 0;   ///< static bound on IIM line occupancy
  i32 oim_peak_lines = 0;   ///< static bound on OIM line occupancy
  /// Bus-side input phase (transfer + strip handshakes) of the estimate —
  /// the CallPhases::input_cycles analogue a pipelining scheduler prices
  /// overlap from.
  u64 input_cycles_estimate = 0;
};

/// How the residency schedule sources one call input.
using core::TransferKind;

std::string to_string(TransferKind k);

struct InputPlan {
  i32 frame = kNoFrame;
  TransferKind kind = TransferKind::Transferred;
  u64 words = 0;  ///< PCI words this input moves under a cold driver
};

struct CallPlan {
  i32 call_index = 0;
  CostEnvelope envelope;
  std::vector<InputPlan> inputs;  ///< one entry per call input, in a/b order
  /// PCI words a residency-aware driver does not move for this call
  /// (inputs classified Reused or Relocated).
  u64 avoidable_words = 0;
  /// Frame ids resident on board after this call (input bank pairs + result
  /// banks) — the interval ends the AEW304 reordering lint keys on.
  std::vector<i32> resident_after;
};

struct ProgramPlan {
  std::vector<CallPlan> calls;
  /// Whole-program totals: bounds and words summed, peaks taken as maxima.
  CostEnvelope total;
  i64 transfers_total = 0;      ///< call inputs priced (cold driver uploads)
  i64 transfers_avoidable = 0;  ///< of those, Reused or Relocated
  u64 avoidable_words = 0;      ///< PCI words saved by a residency-aware driver

  /// Human-readable plan table (one line per call plus a totals line).
  std::string format(const CallProgram& program) const;
};

/// Prices one call against `frame` (the first input's geometry; inter
/// inputs are equally sized in any legal program).  Degenerate geometry
/// (zero-area frame) prices to an all-zero envelope — the verifier, not the
/// planner, reports it.
CostEnvelope plan_call(const alib::Call& call, Size frame,
                       const PlanOptions& options = {});

/// Content-aware refinement for segment calls: substitutes the reachability
/// probe's [pushed_seeds, reachable_pixels] visit interval for the static
/// [0, frame area] extremes, shrinking the envelope by orders of magnitude
/// on sparse masks while staying sound (the probe's counts provably bracket
/// the exact traversal; see alib::probe_segment_reachability).  `reach` must
/// come from probing the call's actual input frame.  Non-segment calls
/// ignore `reach` and price identically to the content-free overload —
/// their cost is already content-independent.
CostEnvelope plan_call(const alib::Call& call, Size frame,
                       const PlanOptions& options,
                       const alib::SegmentReachability& reach);

/// Inclusive static bracket on a segment call's traversal visit count,
/// proven without pixel data (analysis/domain.hpp derives them from the
/// value-interval domain: a criterion proven always-true floods the frame,
/// seeds proven label-blocked visit nothing).  The same role as the
/// reachability probe's [pushed_seeds, reachable_pixels] but free of the
/// runtime pre-pass.
struct SegmentVisitInterval {
  u64 lo = 0;
  u64 hi = 0;
};

/// Prices a segment call through a proven visit interval instead of the
/// static [0, frame area] extremes.  `visits` is clamped against the static
/// extremes, so an interval proven for a different frame can tighten but
/// never unsoundly exceed the content-free envelope.  Non-segment calls
/// ignore it and price identically to the content-free overload.
CostEnvelope plan_call(const alib::Call& call, Size frame,
                       const PlanOptions& options,
                       SegmentVisitInterval visits);

/// Prices a whole program and computes its bank-residency schedule.  The
/// plan is meaningful for programs that verify clean; ill-formed calls
/// (invalid frame references, degenerate geometry) contribute zero
/// envelopes rather than failing, mirroring the verifier's "a checker that
/// cannot hold an ill-formed program cannot report on one".
ProgramPlan plan_program(const CallProgram& program,
                         const PlanOptions& options = {});

/// Like plan_program, but prices call `i` through `visit_hints[i]` when
/// present (analysis::domain_visit_hints supplies proven segment visit
/// intervals).  Hints beyond the call count are ignored; a call without a
/// hint prices content-free.
ProgramPlan plan_program(
    const CallProgram& program, const PlanOptions& options,
    const std::vector<std::optional<SegmentVisitInterval>>& visit_hints);

/// Machine-readable rendering of a plan, one line, no trailing newline.
/// Schema pinned by tests/planner_test.cpp — extend it additively.
std::string plan_json(const ProgramPlan& plan, const CallProgram& program);

}  // namespace ae::analysis
