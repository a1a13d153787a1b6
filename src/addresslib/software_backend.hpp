// The software execution path of the AddressLib — the paper's baseline.
//
// Executes calls functionally (bit-exact reference for the engine) while
// accounting memory accesses and dynamic instructions according to the
// models in access_model.hpp / cost_model.hpp, i.e. it *behaves* like our
// C++ but *counts* like the 2005 XM software it stands in for.
//
// The pixels come from alib::execute, the kernel backend's dispatch
// (specialized row kernels, see kernels/kernel_backend.hpp) — bit-exact
// with the interpreter but far faster on the host.  The accounting does not
// depend on it: the cost models read only the call descriptor and the
// traversal counts, never how this process happened to compute the pixels.
#pragma once

#include "addresslib/call.hpp"
#include "addresslib/cost_model.hpp"
#include "addresslib/kernels/kernel_backend.hpp"

namespace ae::alib {

/// Host-execution knobs of the software backend (modeled costs are
/// controlled separately, via SoftwareCostModel).
struct SoftwareOptions {
  /// Pool/grain of the kernel backend.
  KernelOptions kernels;
};

class SoftwareBackend : public Backend {
 public:
  explicit SoftwareBackend(SoftwareCostModel model = {},
                           SoftwareOptions options = {});

  std::string name() const override;
  CallResult execute(const Call& call, const img::Image& a,
                     const img::Image* b = nullptr) override;
  /// Prices an executed call: writes the software accounting (accesses,
  /// instruction profile, modeled seconds) into `stats`, which carries the
  /// pixel counts alib::execute reported along with `seg`.
  void price(const Call& call, const SegmentRunInfo& seg,
             CallStats& stats) const;

  const SoftwareCostModel& cost_model() const { return model_; }
  const SoftwareOptions& options() const { return options_; }

 private:
  std::string format_ghz() const;

  SoftwareCostModel model_;
  SoftwareOptions options_;
};

}  // namespace ae::alib
