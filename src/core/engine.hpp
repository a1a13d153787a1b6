// EngineBackend — the AddressEngine coprocessor as an AddressLib backend.
//
// Two execution modes:
//  * CycleAccurate — full per-cycle simulation of the board (authoritative;
//    used by the memory/architecture experiments and the test suite),
//  * Analytic — the host pixel path (alib::execute, the kernel backend) plus
//    the closed-form timing model (validated against the simulator; used by
//    call-heavy experiments such as the Table 3 GME runs).
// Both produce bit-identical pixel output.
#pragma once

#include "addresslib/call.hpp"
#include "core/analytic.hpp"
#include "core/config.hpp"
#include "core/engine_sim.hpp"

namespace ae::core {

enum class EngineMode { CycleAccurate, Analytic };

std::string to_string(EngineMode m);

class EngineBackend : public alib::Backend {
 public:
  explicit EngineBackend(EngineConfig config = {},
                         EngineMode mode = EngineMode::CycleAccurate);

  std::string name() const override;
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override;

  const EngineConfig& config() const { return config_; }
  EngineMode mode() const { return mode_; }

  /// Detailed statistics of the most recent execute().
  const EngineRunStats& last_run() const { return last_run_; }

  /// Attaches a transition trace recorder (cycle-accurate mode only;
  /// nullptr detaches).  The recorder must outlive subsequent execute().
  void set_trace(EngineTrace* trace) { trace_ = trace; }

 private:
  EngineConfig config_;
  EngineMode mode_;
  EngineRunStats last_run_;
  EngineTrace* trace_ = nullptr;
};

}  // namespace ae::core
