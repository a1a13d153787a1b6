// Image pyramid built through AddressLib calls (hierarchical GME).
#pragma once

#include <vector>

#include "addresslib/addresslib.hpp"
#include "gme/motion.hpp"

namespace ae::gme {

/// levels[0] is full resolution; each next level is gaussian-smoothed
/// (intra Convolve call) and 2x decimated (host-side subsampling).
struct Pyramid {
  std::vector<img::Image> levels;

  int level_count() const { return static_cast<int>(levels.size()); }
  const img::Image& level(int l) const {
    return levels[static_cast<std::size_t>(l)];
  }
};

/// The binomial 3x3 smoothing call (intra Convolve on Y) that precedes
/// every decimation, and that the estimator's `smooth_levels` applies.
alib::Call binomial_smooth_call();

/// Builds a pyramid with `levels` levels.  Every smoothing pass is an
/// AddressLib call through `backend`; `high_level_instr` (optional)
/// receives the host-side decimation cost.
Pyramid build_pyramid(alib::Backend& backend, const img::Image& frame,
                      int levels, u64* high_level_instr = nullptr);

}  // namespace ae::gme
