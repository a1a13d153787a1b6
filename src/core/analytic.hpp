// Closed-form timing model of the AddressEngine.
//
// The cycle simulator is authoritative but costs O(cycles) per call; the
// GME end-to-end experiment (Table 3) issues thousands of calls, so the
// engine backend also offers this O(1) model.  The formulas follow the
// structure of the design — input DMA, strip interrupts, OIM-limited
// production, Res-block-gated output DMA — and the test suite checks them
// against the cycle simulator within a few percent across configurations.
#pragma once

#include "addresslib/call.hpp"
#include "addresslib/functional.hpp"
#include "core/config.hpp"
#include "core/engine_sim.hpp"
// AnalyticTiming and the analytic_*_timing formulas moved to the header-only
// timing_model.hpp (shared with the static planner below the core in the
// link order); re-exported here so core-side callers are unchanged.
#include "core/timing_model.hpp"

namespace ae::core {

/// Fills an EngineRunStats from the analytic model — the one evaluation of
/// the closed-form price of a call.  `processed`/`tests` are only used for
/// segment calls.  `timing`, when non-null, receives the phase timing the
/// cycle count was assembled from.
EngineRunStats analytic_run_stats(const EngineConfig& config,
                                  const alib::Call& call, Size frame,
                                  i64 processed_pixels = -1,
                                  i64 criterion_tests = 0,
                                  AnalyticTiming* timing = nullptr);

/// A call priced by analytic_run_stats, with the input/output split that
/// residency credits act on (EngineSession subtracts a resident frame's
/// share of `input_cycles`, and `output_cycles` for an elided readback).
struct AnalyticPrice {
  EngineRunStats run;
  u64 input_cycles = 0;   ///< input transfers + strip handshakes, all frames
  u64 output_cycles = 0;  ///< result readback + its strip handshakes
};

/// Prices `call` on a `frame`-sized input with the traversal counts in
/// `seg` (segment calls) and writes the engine fields of `stats`: pixels,
/// ZBT transactions, cycles, bus and stall cycles, modeled seconds.
AnalyticPrice analytic_call_stats(const EngineConfig& config,
                                  const alib::Call& call, Size frame,
                                  const alib::SegmentRunInfo& seg,
                                  alib::CallStats& stats);

}  // namespace ae::core
