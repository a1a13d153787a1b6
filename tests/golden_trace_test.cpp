// Golden-trace regression (tier2): the simulator's transition-level
// timeline for two canonical runs is pinned to committed digests.  Any
// change to engine sequencing — DMA interleave, stall episodes, interrupt
// placement, fault retries — shows up as a readable line-level diff here
// long before it shifts a headline cycle count.
//
// Updating on an *intentional* timing-model change:
//
//   AE_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
//
// rewrites tests/golden/*.trace in the source tree; review the diff and
// commit it with the change that caused it (see docs/TESTING.md).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/core.hpp"
#include "core/resilient.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::PixelOp;

// Injected by tests/CMakeLists.txt; points at tests/golden in the source
// tree so AE_UPDATE_GOLDEN rewrites the committed files.
#ifndef AE_GOLDEN_DIR
#error "build must define AE_GOLDEN_DIR"
#endif

/// One line per trace record: "<cycle> <event> <arg>".  Cycles are modeled
/// engine cycles, so the digest is deterministic on every platform.
std::string digest(const core::EngineTrace& trace) {
  std::ostringstream os;
  for (const core::TraceRecord& r : trace.records())
    os << r.cycle << ' ' << core::to_string(r.event) << ' ' << r.arg << '\n';
  return os.str();
}

void check_against_golden(const std::string& name,
                          const core::EngineTrace& trace) {
  ASSERT_EQ(trace.dropped_events(), 0u)
      << "trace capacity too small for a golden run";
  test::check_golden_text(std::string(AE_GOLDEN_DIR) + "/" + name,
                          digest(trace));
}

TEST(GoldenTrace, CanonicalIntraCon8Call) {
  // The paper's workhorse: a CON_8 neighborhood op streamed over a
  // strip-aligned frame on the default board.
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::GradientMag, alib::Neighborhood::con8());
  core::EngineTrace trace;
  core::EngineRunStats run;
  core::simulate_call({}, call, a, nullptr, &run, &trace);
  EXPECT_GT(trace.count(core::TraceEvent::InputStripArrived), 0u);
  EXPECT_EQ(trace.count(core::TraceEvent::CallEnd), 1u);
  check_against_golden("intra_con8.trace", trace);
}

TEST(GoldenTrace, FaultedDmaRunWithRetries) {
  // Scripted faults (no rate randomness): the first DMA word corrupts and
  // a readback word flips, so the timeline pins both detection/retry paths
  // — strip CRC retransmission and result re-read — at exact cycles.
  const img::Image a = test::small_frame();
  const Call call =
      Call::make_intra(PixelOp::Dilate, alib::Neighborhood::con4());
  core::ResilientOptions options;
  options.plan.script = {{core::FaultKind::DmaWordCorrupt, 0},
                         {core::FaultKind::ReadbackCorrupt, 100}};
  core::ResilientSession session({}, options);
  core::EngineTrace trace;
  session.set_trace(&trace);
  session.execute(call, a);
  session.set_trace(nullptr);
  EXPECT_EQ(trace.count(core::TraceEvent::FaultInjected), 2u);
  EXPECT_GT(trace.count(core::TraceEvent::StripRetry), 0u);
  check_against_golden("faulted_dma.trace", trace);
}

}  // namespace
}  // namespace ae
