#include "gme/pyramid.hpp"

namespace ae::gme {

alib::Call binomial_smooth_call() {
  alib::OpParams gauss;
  gauss.coeffs = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  gauss.shift = 4;
  return alib::Call::make_intra(alib::PixelOp::Convolve,
                                alib::Neighborhood::con8(), ChannelMask::y(),
                                ChannelMask::y(), gauss);
}

Pyramid build_pyramid(alib::Backend& backend, const img::Image& frame,
                      int levels, u64* high_level_instr) {
  AE_EXPECTS(levels >= 1, "pyramid needs at least one level");
  Pyramid pyr;
  pyr.levels.push_back(frame);
  const alib::Call smooth = binomial_smooth_call();
  for (int l = 1; l < levels; ++l) {
    // Note: push_back below may reallocate, so take what we need by value.
    const i64 prev_pixels = pyr.levels.back().pixel_count();
    if (pyr.levels.back().width() < 16 || pyr.levels.back().height() < 16)
      break;  // too coarse to be useful
    const img::Image smoothed =
        backend.execute(smooth, pyr.levels.back()).output;
    pyr.levels.push_back(decimate2(smoothed));
    if (high_level_instr != nullptr)
      *high_level_instr += static_cast<u64>(prev_pixels) * 4;
  }
  return pyr;
}

}  // namespace ae::gme
