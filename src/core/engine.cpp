#include "core/engine.hpp"

#include <sstream>

#include "addresslib/kernels/kernel_backend.hpp"

namespace ae::core {

std::string to_string(EngineMode m) {
  return m == EngineMode::CycleAccurate ? "cycle" : "analytic";
}

EngineBackend::EngineBackend(EngineConfig config, EngineMode mode)
    : config_(config), mode_(mode) {
  validate_config(config_);
}

std::string EngineBackend::name() const {
  std::ostringstream os;
  os << "engine/" << config_.clock_mhz << "MHz/" << to_string(mode_);
  return os.str();
}

alib::CallResult EngineBackend::execute(const alib::Call& call,
                                        const img::Image& a,
                                        const img::Image* b) {
  if (mode_ == EngineMode::CycleAccurate) {
    return simulate_call(config_, call, a, b, &last_run_, trace_);
  }
  alib::SegmentRunInfo seg;
  alib::CallResult result = alib::execute(call, a, b, seg);
  validate_frame(config_, a.size());
  last_run_ =
      analytic_call_stats(config_, call, a.size(), seg, result.stats).run;
  return result;
}

}  // namespace ae::core
