// Software reference vs. engine: bit-exact output equivalence for every op,
// addressing mode, scan order and both engine execution modes — the
// property the paper's whole software/hardware comparison rests on.  The
// reference is the interpreter (alib::execute_functional), not the
// SoftwareBackend: the analytic engine and the software backend share the
// kernel pixel path, so only the interpreter checks them independently.
#include <gtest/gtest.h>

#include "addresslib/functional.hpp"
#include "core/core.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::Mode;
using alib::PixelOp;
using alib::ScanOrder;
using core::EngineBackend;
using core::EngineMode;

struct EquivalenceCase {
  Call call;
  bool needs_b;
  std::string label;
};

std::vector<EquivalenceCase> all_cases() {
  std::vector<EquivalenceCase> cases;
  for (const Call& c : test::representative_intra_calls())
    cases.push_back({c, false, c.describe()});
  for (const Call& c : test::representative_inter_calls())
    cases.push_back({c, true, c.describe()});
  return cases;
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, ScanOrder>> {};

TEST_P(EngineEquivalence, CycleAccurateMatchesSoftware) {
  const auto [index, scan] = GetParam();
  EquivalenceCase ec = all_cases()[index];
  ec.call.scan = scan;
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();

  EngineBackend hw(core::EngineConfig{}, EngineMode::CycleAccurate);

  const alib::CallResult ref =
      alib::execute_functional(ec.call, a, ec.needs_b ? &b : nullptr);
  const alib::CallResult out =
      hw.execute(ec.call, a, ec.needs_b ? &b : nullptr);

  SCOPED_TRACE(ec.label + " scan=" + alib::to_string(scan));
  test::expect_images_equal(ref.output, out.output);
  EXPECT_EQ(ref.side.sad, out.side.sad);
  EXPECT_EQ(ref.side.histogram, out.side.histogram);
}

TEST_P(EngineEquivalence, AnalyticMatchesSoftware) {
  const auto [index, scan] = GetParam();
  EquivalenceCase ec = all_cases()[index];
  ec.call.scan = scan;
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();

  EngineBackend hw(core::EngineConfig{}, EngineMode::Analytic);

  const alib::CallResult ref =
      alib::execute_functional(ec.call, a, ec.needs_b ? &b : nullptr);
  const alib::CallResult out =
      hw.execute(ec.call, a, ec.needs_b ? &b : nullptr);

  SCOPED_TRACE(ec.label);
  test::expect_images_equal(ref.output, out.output);
  EXPECT_EQ(ref.side.sad, out.side.sad);
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, ScanOrder>>& tpi) {
  const std::size_t index = std::get<0>(tpi.param);
  const ScanOrder scan = std::get<1>(tpi.param);
  std::string name = all_cases()[index].label + "_" +
                     (scan == ScanOrder::RowMajor ? "row" : "col");
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EngineEquivalence,
    ::testing::Combine(::testing::Range<std::size_t>(0, all_cases().size()),
                       ::testing::Values(ScanOrder::RowMajor,
                                         ScanOrder::ColumnMajor)),
    case_name);

TEST(EngineEquivalenceSegment, SegmentMatchesSoftware) {
  const img::Image a = test::small_frame(7);
  alib::SegmentSpec spec;
  spec.seeds = {Point{10, 10}, Point{40, 20}};
  spec.luma_threshold = 20;
  Call call = Call::make_segment(
      PixelOp::Copy, alib::Neighborhood::con8(), spec, ChannelMask::y(),
      ChannelMask::y().with(Channel::Alfa));

  EngineBackend cyc(core::EngineConfig{}, EngineMode::CycleAccurate);
  EngineBackend ana(core::EngineConfig{}, EngineMode::Analytic);

  const alib::CallResult ref = alib::execute_functional(call, a);
  const alib::CallResult out_c = cyc.execute(call, a);
  const alib::CallResult out_a = ana.execute(call, a);

  test::expect_images_equal(ref.output, out_c.output);
  test::expect_images_equal(ref.output, out_a.output);
  ASSERT_EQ(ref.segments.size(), out_c.segments.size());
  for (std::size_t i = 0; i < ref.segments.size(); ++i) {
    EXPECT_EQ(ref.segments[i].pixel_count, out_c.segments[i].pixel_count);
    EXPECT_EQ(ref.segments[i].geodesic_radius,
              out_c.segments[i].geodesic_radius);
  }
}

TEST(EngineEquivalenceStrict, StrictInterSequencingSameOutput) {
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  const Call call = Call::make_inter(PixelOp::AbsDiff);

  core::EngineConfig strict;
  strict.strict_inter_sequencing = true;
  EngineBackend relaxed(core::EngineConfig{}, EngineMode::CycleAccurate);
  EngineBackend sequential(strict, EngineMode::CycleAccurate);

  const alib::CallResult r1 = relaxed.execute(call, a, &b);
  const alib::CallResult r2 = sequential.execute(call, a, &b);
  test::expect_images_equal(r1.output, r2.output);
  // Strict sequencing can only slow the call down.
  EXPECT_GE(r2.stats.cycles, r1.stats.cycles);
}

}  // namespace
}  // namespace ae
