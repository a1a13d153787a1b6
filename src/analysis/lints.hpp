// AEW300-series performance lints — findings derived from the static plan.
//
// The verifier (verifier.hpp) rejects ill-formed programs; the lints accept
// a legal program and point at modeled cycles or PCI words it leaves on the
// table: redundant re-uploads the residency schedule proves avoidable, dead
// stores, strips too short to amortize their own handshake, fusable
// pointwise pairs, reorderings that recover bank reuse, and vacuous segment
// criteria that push the cost envelope to its worst case.
//
// Every AEW rule is a Severity::Warning (rules.hpp): the program runs
// bit-exactly either way, so the default `aeverify` exit code never
// changes.  The CLI surfaces them behind `--lint`; `--strict` promotes
// them, like any warning, to a failing exit.
#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/planner.hpp"
#include "analysis/program.hpp"

namespace ae::analysis {

/// Runs the AEW3xx catalog against `program` using an already-computed
/// plan (the plan must come from the same program and options — the CLI
/// prices once and both prints and lints from it).
Report lint_program(const CallProgram& program, const ProgramPlan& plan,
                    const PlanOptions& options = {});

/// Convenience overload: prices the program, then lints it.
Report lint_program(const CallProgram& program,
                    const PlanOptions& options = {});

/// Shared predicate of AEW301 and the aeopt dead-elim rewrite: call `i`'s
/// result is read by no call and never collected by the host, yet a later
/// call overwrites the result banks.  False on programs without declared
/// outputs (liveness is unknowable there, as for AEV201).  The rewrite adds
/// its own filters on top: streamed calls without side-port results only.
bool dead_result(const CallProgram& program, std::size_t i);

/// One AEW304 site: call `call` transfers input `frame`, which was still
/// bank-resident after the earlier call `resident_at` but evicted before
/// this use, and hoisting `call` to directly follow `resident_at` is
/// dependence-legal (every input of `call` exists by then).
struct ReorderSite {
  std::size_t call = 0;
  i32 frame = kNoFrame;
  i32 resident_at = kNoFrame;
};

/// AEW304's detector, shared with the aeopt reorder tier: every site of
/// `program` under `plan` (which must price that same program), in call
/// order, then input order.
std::vector<ReorderSite> reorder_for_reuse_sites(const CallProgram& program,
                                                 const ProgramPlan& plan);

/// Shared predicate of AEW303 and the aeopt fuse rewrite (optimizer.hpp):
/// call `i`'s result is consumed solely by the immediately following
/// pointwise (CON_0 intra) call, read through that call's real input, and
/// folding the consumer onto call `i` as a fused stage is bit-exact.
/// Segment producers are refused — their output contains wholesale-copied
/// unprocessed pixels a fused stage would never touch (but the standalone
/// consumer transforms), and segment ids land in Alfa after the kernel ran,
/// so a fused stage would read pre-id values.
bool fusable_pointwise_pair(const CallProgram& program, std::size_t i);

}  // namespace ae::analysis
