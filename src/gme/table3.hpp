// End-to-end sequence experiment: the reproduction of the paper's Table 3.
//
// Runs the hierarchical GME over a whole (synthetic) sequence, builds the
// mosaic, counts the AddressLib calls by mode, and prices the run on both
// platforms (Pentium-M software vs. P4 + AddressEngine board).
#pragma once

#include <string>
#include <vector>

#include "gme/estimator.hpp"
#include "gme/mosaic.hpp"
#include "gme/platform.hpp"
#include "image/sequence.hpp"

namespace ae::gme {

struct SequenceExperiment {
  std::string name;
  int frames = 0;

  // Table 3 columns.
  double pm_seconds = 0.0;    ///< "Time in PM" (modeled)
  double fpga_seconds = 0.0;  ///< "Time in FPGA" (modeled, board + host)
  i64 intra_calls = 0;        ///< "Intra AddrEng calls"
  i64 inter_calls = 0;        ///< "Inter AddrEng calls"

  double speedup() const {
    return fpga_seconds > 0.0 ? pm_seconds / fpga_seconds : 0.0;
  }

  // Reproduction-quality diagnostics (not in the paper's table).
  double mean_motion_error_px = 0.0;  ///< |estimate - scripted truth| mean
  double mosaic_coverage = 0.0;
  int gme_iterations = 0;
  img::Image mosaic;  ///< rendered mosaic (empty if not requested)
};

struct SequenceRunOptions {
  GmeParams gme;
  alib::SoftwareCostModel software_model;
  core::EngineConfig engine_config;
  bool build_mosaic = true;
  int max_frames = 0;  ///< 0 = all frames
};

/// Runs the full experiment on one synthetic sequence.
SequenceExperiment run_sequence_experiment(
    const img::SyntheticSequence& sequence,
    const SequenceRunOptions& options = {});

}  // namespace ae::gme
