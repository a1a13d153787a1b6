#include "core/config.hpp"

#include "image/image.hpp"

namespace ae::core {
namespace {

bool is_power_of_two(i32 v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

void validate_config(const EngineConfig& config) {
  AE_EXPECTS(config.clock_mhz > 0.0, "clock must be positive");
  AE_EXPECTS(config.bus_width_bits == 32 || config.bus_width_bits == 64,
             "bus width must be 32 or 64 bits");
  AE_EXPECTS(config.bus_efficiency > 0.0 && config.bus_efficiency <= 1.0,
             "bus efficiency must be in (0, 1]");
  AE_EXPECTS(config.zbt_banks >= 6,
             "the bank-pair layout needs 6 banks (2 inputs + result)");
  AE_EXPECTS(config.zbt_bank_bytes > 0, "bank size must be positive");
  AE_EXPECTS(is_power_of_two(config.strip_lines),
             "strip size must be a power of two (addressing simplicity, "
             "paper section 3.1)");
  AE_EXPECTS(config.strip_lines >= 9 + 1,
             "strips must cover the 9-line worst-case neighborhood plus "
             "prefetch slack");
  AE_EXPECTS(config.iim_lines >= 9,
             "IIM must hold the 9-line worst-case neighborhood");
  AE_EXPECTS(config.iim_lines >= config.strip_lines / 2,
             "IIM must buffer at least half a strip to overlap transfers");
  AE_EXPECTS(config.oim_lines >= 1, "OIM needs at least one line");
  AE_EXPECTS(config.pipeline_stages == 4,
             "the process unit is a 4-stage design");
  AE_EXPECTS(config.max_line_pixels > 0, "line sizing must be positive");
}

void validate_frame(const EngineConfig& config, Size frame) {
  // The paper picks 16-line strips partly because 16 divides QCIF and CIF;
  // other sizes work through a short final strip, so they are allowed.
  const FrameFit fit = frame_fit(config, frame);
  AE_EXPECTS(fit.non_empty, "frame must be non-empty");
  AE_EXPECTS(fit.fits_lines, "frame exceeds the line buffer sizing");
  AE_EXPECTS(fit.fits_bank, "frame does not fit a ZBT bank pair");
}

}  // namespace ae::core
