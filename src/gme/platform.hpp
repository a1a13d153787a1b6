// Dual-platform accounting for the Table 3 experiment.
//
// The paper runs the same GME twice: pure software on a Pentium-M 1.6 GHz,
// and with AddressLib calls dispatched to the board inside a P4 3 GHz PC.
// Both runs compute identical pixels (backends are bit-equivalent), so the
// reproduction executes once and accounts both platforms per call:
//   * software time from the SoftwareBackend's calibrated cost model,
//   * board time from the engine's analytic model (validated against the
//     cycle simulator),
//   * the host-side high-level share priced on each platform's CPU.
#pragma once

#include "addresslib/addresslib.hpp"
#include "core/core.hpp"

namespace ae::gme {

/// Host CPU models for the high-level (non-AddressLib) share.
struct HostCpuModel {
  double clock_hz = 1.6e9;
  double cpi = 1.2;
  double seconds(u64 instructions) const {
    return static_cast<double>(instructions) * cpi / clock_hz;
  }
};

inline HostCpuModel pentium_m_1_6() { return HostCpuModel{1.6e9, 1.2}; }
inline HostCpuModel pentium_4_3_0() { return HostCpuModel{3.0e9, 1.35}; }

/// Backend wrapper: executes each call once on the host pixel path and
/// prices it on both platforms from the same traversal counts — Pentium-M
/// accounting (SoftwareBackend::price) and the engine's analytic model.
class DualPlatformBackend : public alib::Backend {
 public:
  explicit DualPlatformBackend(
      alib::SoftwareCostModel sw_model = {},
      core::EngineConfig engine_config = {})
      : software_(sw_model), engine_config_(engine_config) {
    core::validate_config(engine_config_);
  }

  std::string name() const override { return "dual-platform"; }

  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override {
    alib::SegmentRunInfo seg;
    alib::CallResult result =
        alib::execute(call, a, b, seg, software_.options().kernels);
    software_.price(call, seg, result.stats);
    software_seconds_ += result.stats.model_seconds;
    software_stats_.merge(result.stats);
    engine_cycles_ += core::analytic_run_stats(engine_config_, call, a.size(),
                                               seg.processed_pixels,
                                               seg.criterion_tests)
                          .cycles;

    if (call.mode == alib::Mode::Inter) {
      ++inter_calls_;
    } else if (call.mode == alib::Mode::Intra) {
      ++intra_calls_;
    } else {
      ++segment_calls_;
    }
    return result;
  }

  /// Host-side high-level work (warps, solver, mosaic blending) — priced on
  /// both platforms' CPUs.
  void add_high_level(u64 instructions) { high_level_instr_ += instructions; }

  // ---- per-platform totals -------------------------------------------------
  double software_platform_seconds() const {
    return software_seconds_ + pentium_m_1_6().seconds(high_level_instr_);
  }
  double engine_platform_seconds() const {
    return static_cast<double>(engine_cycles_) *
               engine_config_.seconds_per_cycle() +
           pentium_4_3_0().seconds(high_level_instr_);
  }
  double engine_board_seconds() const {
    return static_cast<double>(engine_cycles_) *
           engine_config_.seconds_per_cycle();
  }

  i64 intra_calls() const { return intra_calls_; }
  i64 inter_calls() const { return inter_calls_; }
  i64 segment_calls() const { return segment_calls_; }
  u64 high_level_instr() const { return high_level_instr_; }
  const alib::CallStats& software_stats() const { return software_stats_; }

 private:
  alib::SoftwareBackend software_;
  core::EngineConfig engine_config_;
  double software_seconds_ = 0.0;
  u64 engine_cycles_ = 0;
  u64 high_level_instr_ = 0;
  i64 intra_calls_ = 0;
  i64 inter_calls_ = 0;
  i64 segment_calls_ = 0;
  alib::CallStats software_stats_;
};

}  // namespace ae::gme
