// aealloc — whole-program static residency allocation over CallPrograms.
//
// The fifth pass of the analysis family.  aeverify proves a program legal,
// aeplan prices it under the driver's *incidental* residency (the LRU table
// EngineSession drives), aeopt rewrites it, aedom bounds its values —
// aealloc decides, ahead of submission, which frames should occupy the
// engine's bank resources at each call.  The same move
// register allocation makes over CPU registers, transposed onto the
// coprocessor's ZBT geometry: two input bank pairs plus the result pair,
// with frame liveness intervals in place of virtual-register live ranges.
//
// The pass runs in three stages:
//
//   1. LIVENESS — per frame, the defining call (kNoFrame for external
//      inputs), the first and last consuming calls, and whether the frame's
//      geometry fits a bank pair at all (core::frame_fit).  Two frames
//      INTERFERE when their live spans overlap — they then compete for the
//      two reusable input slots, and the interference edge count together
//      with the maximum number of simultaneously live frames bound how much
//      residency any schedule can recover.
//
//   2. ASSIGNMENT — a slot-exact replay of the call sequence under two
//      eviction policies, both through core::ResidencyTable, the table
//      aeplan and EngineSession drive.  The LRU policy is the table's
//      default victim order, so its Transferred word count equals
//      `plan_program`'s by construction — that is the baseline.  The
//      BELADY policy passes the table a farthest-next-use victim order (the
//      offline-optimal eviction rule), which never does worse than LRU on
//      the same order in practice; because that is a heuristic claim, not a
//      theorem, the allocator re-prices both and falls back to the LRU
//      replay whenever Belady fails to strictly improve — the emitted plan
//      NEVER regresses the aeplan baseline, by construction rather than by
//      hope.
//
//   3. SCHEDULE (optional) — a greedy steepest-descent search over
//      dependence-preserving single-call hoists, objective = Belady
//      Transferred words.  A strictly improving order is emitted as a
//      schedule hint; aeopt's reorder tier may adopt it, but only through
//      its existing residency dominance proof (optimizer.hpp) — the
//      allocator proposes, the prover disposes.
//
// The emitted ResidencyPlan carries, per scheduled call, the placement of
// every input (keep-resident / relocate-on-board / transfer, with the slot
// it lands in) and the `keep` set — the input-slot frames that must survive
// this call because a later call reads them.  `EngineFarm::execute_program`
// turns keep sets into session pins (core::EngineSession::pin_frames);
// `residency_plan_legal` re-checks any plan against the slot invariants the
// engine enforces, which is also the fuzz gate's definition of "no
// live-range conflict on any bank resource".
#pragma once

#include <string>
#include <vector>

#include "analysis/planner.hpp"
#include "analysis/program.hpp"

namespace ae::analysis {

struct AllocOptions {
  /// Cost model (engine geometry) the plan is computed against.
  PlanOptions plan{};
  /// Search for an order-preserving schedule hint (stage 3).  Off, the
  /// schedule is always the program's own call order — the mode AEW307 and
  /// the farm's plan-directed execution use.
  bool schedule = true;
};

/// Liveness interval of one frame, in call-index coordinates of the
/// program's own order.
struct LiveInterval {
  i32 frame = kNoFrame;
  i32 def = kNoFrame;        ///< producing call; kNoFrame = external input
  i32 first_use = kNoFrame;  ///< first consuming call; kNoFrame if never read
  i32 last_use = kNoFrame;   ///< last consuming call; kNoFrame if never read
  u64 words = 0;             ///< PCI words one upload of this frame moves
  bool output = false;       ///< declared program output (host reads it back)
  bool bank_ok = false;      ///< geometry fits a ZBT bank pair (frame_fit)
};

/// True when the two frames' live spans overlap — both alive across at
/// least one call, so they compete for the same bank resources.  A frame is
/// live from its definition (externals: from their first use) through its
/// last use; frames that are never read have an empty span and interfere
/// with nothing.  Declared outputs are read back at production, so an
/// output's span is NOT extended past its last on-board use.
bool frames_interfere(const LiveInterval& a, const LiveInterval& b);

/// Placement decision for one call input.
struct InputAssignment {
  i32 frame = kNoFrame;
  TransferKind kind = TransferKind::Transferred;
  /// Input bank pair the frame occupies (0 or 1); -1 when the input never
  /// lands in a slot (invalid frame references the verifier flags).
  i32 slot = -1;
  u64 words = 0;  ///< PCI words moved when kind == Transferred, else avoided
};

struct CallAssignment {
  i32 call_index = 0;  ///< index into program.calls() (original order)
  std::vector<InputAssignment> inputs;  ///< in a/b order, arity entries
  /// Frames resident in the input slots after this call that a later
  /// scheduled call still reads — the farm pins exactly these so incidental
  /// eviction cannot undo the plan.  Sorted, unique.
  std::vector<i32> keep;
};

struct ResidencyPlan {
  /// Per-frame liveness, indexed by frame id.
  std::vector<LiveInterval> intervals;
  /// Execution order as original call indices; identity unless a strictly
  /// improving dependence-preserving order was found.
  std::vector<i32> schedule;
  bool reordered = false;
  /// Placement decisions, one per call, in SCHEDULE order.
  std::vector<CallAssignment> assignments;
  /// Interference summary: maximum simultaneously live frames and the
  /// number of interfering frame pairs.
  i32 max_live = 0;
  i64 interference_edges = 0;
  /// PCI input words under a cold driver (every input transferred).
  u64 cold_words = 0;
  /// Transferred words under aeplan's LRU residency on the original order —
  /// the baseline the plan must never regress.
  u64 baseline_transferred_words = 0;
  /// Transferred words under this plan.  Invariant (by construction):
  /// allocated_transferred_words <= baseline_transferred_words.
  u64 allocated_transferred_words = 0;
  u64 words_saved = 0;  ///< baseline - allocated
  /// Input classification counts under this plan.
  i64 inputs_transferred = 0;
  i64 inputs_reused = 0;
  i64 inputs_relocated = 0;

  /// Human-readable allocation table (one line per scheduled call plus a
  /// totals line).
  std::string format(const CallProgram& program) const;
};

/// Computes the residency plan.  Meaningful for programs that verify clean;
/// ill-formed references degrade to all-transfer placements rather than
/// failing, mirroring the planner's behavior on the same inputs.
ResidencyPlan allocate_residency(const CallProgram& program,
                                 const AllocOptions& options = {});

/// Independent legality check of a plan against the engine's slot
/// invariants: the schedule is a dependence-preserving permutation, every
/// Reused input names a frame actually occupying its slot, every Relocated
/// input names the previous call's result, no two inputs of one call share
/// a slot, keep sets only name resident frames, and every word count
/// matches the frame geometry.  On failure `why` (when non-null) receives a
/// one-line reason.  This is the fuzz gate's "no live-range conflict on any
/// bank resource" predicate — deliberately a re-derivation, not a re-run,
/// of the allocator.
bool residency_plan_legal(const CallProgram& program, const ResidencyPlan& plan,
                          std::string* why = nullptr);

/// Machine-readable rendering of a plan, one line, no trailing newline.
/// Schema pinned by tests/alloc_test.cpp — extend it additively.
std::string alloc_json(const ResidencyPlan& plan, const CallProgram& program);

}  // namespace ae::analysis
