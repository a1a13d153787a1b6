// aeopt — envelope-proven rewriting of AddressLib call programs.
//
// The closing arc of the analysis stack: aeverify proves a program legal,
// aeplan prices it, the AEW3xx lints point at cycles it leaves on the table
// — aeopt acts on that knowledge.  Four rewrite classes, each the
// actionable form of one lint and each using that lint's own detector
// (lints.hpp, domain.hpp); all four always run:
//
//   * dead-elim (AEW301) — drop streamed calls whose result no later call
//     reads and the host never collects, provided the call leaves no
//     side-port results (Histogram/Sad/Gme* accumulators are observable
//     even when the output frame is dead).
//   * range (AEW306) — drop streamed calls the value domain (aedom,
//     domain.hpp) proves write back exactly their first input pixel for
//     pixel; the interval proof is recorded in the RewriteRecord note and
//     the saving is admitted under the dedicated `range` dominance tier.
//   * fuse (AEW303) — fold a pointwise (CON_0 intra) consumer onto its
//     producer as a FusedStage chain, eliminating the intermediate result's
//     store, readback and re-upload.  Bit-exact by construction: a fused
//     stage reads exactly the pixel the consumer would have read back.
//   * reorder (AEW304) — hoist a call next to the last point its input was
//     still bank-resident, turning a PCI re-upload into a reuse.
//
// Every rewrite must pass a DOMINANCE PROOF before it is kept (see
// docs/ARCHITECTURE.md "Program optimization (aeopt)"):
//
//   proven      rewritten.total.cycles.upper <= original.total.cycles.lower
//               — unconditional cycle dominance, margins included.
//   range       (range drops) the same proven/structural arithmetic carries
//               the numbers, but the record's tier reads `range` so the log
//               separates savings licensed by a value-domain identity proof
//               from plain dataflow removals.
//   structural  (fuse / dead-elim fallback) the surviving calls' envelopes
//               are numerically identical to their originals, so the saving
//               is exactly the removed/absorbed call's envelope.  Holds
//               because streamed envelopes are op-independent (planner.cpp).
//   residency   (reorder) the program is a permutation — plan totals are
//               asserted identical — and the rewrite is kept only if the
//               residency schedule's Transferred PCI words strictly
//               decrease.  The cycle claim is zero.
//
// A candidate failing its proof is refused and counted, never applied; and
// every emitted program re-passes aeverify (a rewrite that introduces any
// error is refused regardless of its proof).  Ill-formed input programs are
// returned unchanged — the optimizer transforms only what the verifier
// already accepts.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/planner.hpp"
#include "analysis/verifier.hpp"

namespace ae::analysis {

/// One applied rewrite, machine-readable (the ISSUE's RewriteLog entry).
struct RewriteRecord {
  std::string rule;  ///< lint rule the rewrite actions ("AEW301", ...)
  std::string kind;  ///< "dead-elim" | "range" | "fuse" | "reorder"
  std::string tier;  ///< "proven" | "range" | "structural" | "residency"
  /// Call indices touched, valid in the program *as it was* when this
  /// rewrite applied (earlier records shift later indices).
  std::vector<i32> calls;
  /// Claimed modeled-cycle saving: point estimate plus the envelope the
  /// measured saving must land in (plan-soundness carries over).
  i64 claimed_cycles_delta = 0;
  CostBound claimed_cycles_bound;
  /// Claimed PCI word saving (cold-driver words for structural removals;
  /// residency-schedule Transferred words for reorders).
  i64 claimed_pci_words_delta = 0;
  std::string note;
};

struct RewriteLog {
  std::vector<RewriteRecord> records;
  /// Summed claims across records.
  i64 claimed_cycles_delta = 0;
  CostBound claimed_cycles_bound;
  i64 claimed_pci_words_delta = 0;
  /// Candidates still refused by their dominance proof (or the re-verify
  /// gate) at fixpoint — recounted on the final round, so a candidate
  /// refused every round counts once.
  int rejected = 0;
};

struct OptimizeResult {
  CallProgram program;
  RewriteLog log;
  bool changed = false;
};

/// Rewrites `program` to a fixpoint under every class, proving each rewrite
/// against `plan` (its config is also the board the re-verify gate checks),
/// then stamps the value domain's clamp-free hints (analysis/domain.hpp) on
/// the final program — advisory, so not counted as a rewrite.  The result
/// program is observation-equivalent: declared output frames bit-exact,
/// merged side-port accumulators equal, segment records preserved (keyed by
/// id; reorders permute their arrival order).
OptimizeResult optimize_program(const CallProgram& program,
                                const PlanOptions& plan = {});

/// Machine-readable rendering of a rewrite log, one line, no trailing
/// newline.  Schema pinned by tests/optimizer_test.cpp — extend additively.
std::string rewrite_log_json(const RewriteLog& log);

/// Human-readable log (one line per record plus a totals line).
std::string format_rewrite_log(const RewriteLog& log);

/// A frame value held by shared, immutable handle.  A run holds each result
/// in a buffer of its own, and a step may share it (a farm shard keeps the
/// frames on its board this way, serve/farm.hpp).  A caller's input is
/// borrowed: its handle points at the caller's image and owns nothing.
using FrameHandle = std::shared_ptr<const img::Image>;

/// A handle to `image` that owns nothing; the caller keeps `image` alive.
inline FrameHandle borrow_frame(const img::Image& image) {
  return FrameHandle(FrameHandle(), &image);
}

/// True for a handle made by borrow_frame: it has no owner to share.
inline bool is_borrowed(const FrameHandle& frame) {
  return frame != nullptr && frame.use_count() == 0;
}

/// Reference sequential executor of a CallProgram: external frames are taken
/// from `inputs` in frame-declaration order (borrowed, never copied), each
/// result is moved once into a buffer of its own, and the declared outputs
/// come back in outputs() order (a result moves out on its last mention
/// there when the run holds its only reference; a caller input, a result
/// named again later, or one a step still shares is copied).  Side-port
/// accumulators, stats, and segment records are merged across all calls —
/// the observation set the optimizer's equivalence contract is stated over.
struct ProgramRunResult {
  std::vector<img::Image> outputs;
  alib::SideAccum side;
  alib::CallStats stats;
  /// Concatenated in execution order (call order unless the run was given
  /// another order); consumers key segments by id, never by position.
  std::vector<alib::SegmentInfo> segments;
};

/// Runs `program` in call order, each call through `backend.execute`.
ProgramRunResult run_program(const CallProgram& program, alib::Backend& backend,
                             const std::vector<img::Image>& inputs);

/// One call of a run: its position in the execution order, the call, and
/// every frame's current value by id (null: not yet available).  The
/// runner has checked that the call's inputs are available.  A step may
/// keep a result's handle beyond the call; a borrowed input's (is_borrowed)
/// only until the run returns.
using ProgramStep = std::function<alib::CallResult(
    std::size_t position, const ProgramCall& call,
    const std::vector<FrameHandle>& values)>;

/// Runs `program`'s calls in `order` (call indices; every call's inputs
/// must be available when it runs), executing each through `step`.  Same
/// input binding, checks and output collection as the form above, which is
/// this one with program order and `backend.execute`.
ProgramRunResult run_program(const CallProgram& program,
                             const std::vector<i32>& order,
                             const std::vector<img::Image>& inputs,
                             const ProgramStep& step);

}  // namespace ae::analysis
