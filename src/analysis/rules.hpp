// Rule catalog of the `aeverify` static verifier.
//
// Rules are grouped by scope:
//   AEV1xx — per-call structural checks (no program context needed),
//   AEV2xx — whole-program dataflow checks over a call sequence,
//   AEW3xx — performance lints of the static planner (lints.hpp): the
//            program is legal but leaves modeled cycles or PCI words on the
//            table.  All AEW rules are warnings; they never change the
//            default exit code of `aeverify` and are emitted only by
//            `lint_program` (opt-in via `aeverify --lint`).
// Ids are stable: CI suppressions, the differential test suite and the docs
// all key on them.  The catalog is data, not behavior — the checks
// themselves live in verifier.cpp — so the CLI can print it and the docs
// table can be diffed against it.
#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"

namespace ae::analysis::rules {

// ---- per-call (AEV1xx) -----------------------------------------------------
/// Op is not a member of the call mode's op set (inter op in intra mode, ...).
inline constexpr const char* kModeOpMismatch = "AEV100";
/// Input arity wrong for the mode: inter without a second frame, or a
/// non-inter call given one.
inline constexpr const char* kArityMismatch = "AEV101";
/// Inter inputs differ in size (the bank pairs mirror each other).
inline constexpr const char* kFrameSizeMismatch = "AEV102";
/// Channel masks violate the op contract (empty masks, Homogeneity /
/// GradientPack / TableLookup / write_ids channel requirements).
inline constexpr const char* kChannelMaskInvalid = "AEV103";
/// Op parameters out of range: shift, coefficient arity, missing lookup
/// table, warp arity, negative thresholds.
inline constexpr const char* kOpParamsInvalid = "AEV104";
/// Neighborhood taller than the 9-line hardware limit.
inline constexpr const char* kWindowExceedsLimit = "AEV105";
/// Neighborhood bounding box wider or taller than the frame: every access
/// is border-resolved, the kernel degenerates to border handling.
inline constexpr const char* kWindowExceedsFrame = "AEV106";
/// Degenerate frame: empty or zero-area.
inline constexpr const char* kDegenerateFrame = "AEV107";
/// Frame exceeds the engine configuration (line-buffer sizing, ZBT bank
/// capacity for two inputs + result).
inline constexpr const char* kFrameExceedsConfig = "AEV108";
/// Segment spec ill-formed: no seeds, seed outside the frame, negative
/// luma threshold (write_ids channel requirements are AEV103).
inline constexpr const char* kSegmentSpecInvalid = "AEV109";
/// Segment id allocation may exceed the 16-bit id space
/// (id_base + worst-case new segments > 65535).
inline constexpr const char* kSegmentTableOverflow = "AEV110";
/// Scan-space line count is not a multiple of the strip height: the DMA
/// plan ends in a short strip (legal, but strip-aligned frames transfer
/// without a partial-strip interrupt).
inline constexpr const char* kStripUnaligned = "AEV111";
/// Neighborhood line span does not fit the IIM window / strip height under
/// the configured scan order — the line buffers cannot hold the working
/// set the scan needs.
inline constexpr const char* kIimWindowInfeasible = "AEV112";

// ---- whole-program (AEV2xx) ------------------------------------------------
/// A call consumes a frame id that no earlier call produced and that is not
/// a declared external input.
inline constexpr const char* kUseBeforeWrite = "AEV200";
/// A produced frame is never consumed and is not a declared program output
/// (dead store; only checked when the program declares outputs).
inline constexpr const char* kDeadResult = "AEV201";
/// ZBT bank-pair duplicate-slot aliasing: an inter call reads the same
/// frame through both inputs.  The engine needs the frame resident in both
/// bank pairs; residency accounting that lets one on-board copy satisfy
/// both claims one slot twice — the exact class of the PR 2 duplicate-slot
/// bug, rejected before any backend runs.
inline constexpr const char* kZbtDuplicateSlot = "AEV210";
/// Two segment calls allocate overlapping id ranges; downstream
/// segment-indexed table consumers cannot tell the segments apart.
inline constexpr const char* kSegmentIdOverlap = "AEV211";

// ---- performance lints (AEW3xx) --------------------------------------------
/// A call re-uploads an input frame that the bank-residency schedule keeps
/// in an input pair from an earlier call — a residency-aware driver skips
/// the whole PCI transfer (EngineSession's frame residency).
inline constexpr const char* kRedundantReupload = "AEW300";
/// A call's result is never read by any later call and is not a program
/// output, yet a later call overwrites the result banks — the store (and
/// its readback) is dead work.
inline constexpr const char* kDeadStoreOverwrite = "AEW301";
/// The per-strip DMA busy time is below the interrupt/handshake overhead:
/// double-buffered strip transfer cannot amortize its own handshakes, so
/// the bus spends more cycles on overhead than on words.
inline constexpr const char* kStripBelowBreakEven = "AEW302";
/// A call's result is consumed solely by the immediately following
/// pointwise (con0 intra) call: the pair is fusable into one pass, saving
/// a full result-readback + re-upload round trip.
inline constexpr const char* kFusablePointwisePair = "AEW303";
/// A transferred input was resident on board earlier but got evicted
/// between its uses, and moving the consumer directly after the last
/// resident use is dependence-legal — reordering recovers the reuse.
inline constexpr const char* kReorderForReuse = "AEW304";
/// A segment call whose admission criterion is vacuous (luma threshold at
/// or above the 8-bit range, chroma disabled or equally vacuous): every
/// neighbor is admitted, so the expansion floods the frame and the static
/// cost envelope degenerates to its worst case.
inline constexpr const char* kSegmentVacuousCriterion = "AEW305";

/// A streamed call the value-domain analysis (analysis/domain.hpp) proves
/// writes back exactly its first input, pixel for pixel: the whole call is
/// dead weight the aeopt `range` tier can drop bit-exactly.
inline constexpr const char* kRangeIdentityOp = "AEW306";

/// An input the LRU residency schedule classifies Transferred has a legal
/// Reused/Relocated assignment under the static allocator
/// (analysis/alloc.hpp, same order, Belady eviction): the upload is
/// avoidable without touching the program — only the eviction decisions.
inline constexpr const char* kAllocatableResidency = "AEW307";

struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
};

/// The full catalog, in id order (printed by `aeverify --rules` and
/// mirrored by the docs/ARCHITECTURE.md table).
const std::vector<RuleInfo>& catalog();

}  // namespace ae::analysis::rules
