#include "addresslib/software_backend.hpp"

#include "addresslib/access_model.hpp"

namespace ae::alib {

SoftwareBackend::SoftwareBackend(SoftwareCostModel model,
                                 SoftwareOptions options)
    : model_(model), options_(options) {}

std::string SoftwareBackend::format_ghz() const {
  const double ghz = model_.clock_hz / 1e9;
  std::string s = std::to_string(ghz);
  s.erase(s.find_last_not_of('0') + 1);
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string SoftwareBackend::name() const {
  return "software/PM-" + format_ghz() + "GHz";
}

CallResult SoftwareBackend::execute(const Call& call, const img::Image& a,
                                    const img::Image* b) {
  SegmentRunInfo seg;
  CallResult result = alib::execute(call, a, b, seg, options_.kernels);
  price(call, seg, result.stats);
  return result;
}

void SoftwareBackend::price(const Call& call, const SegmentRunInfo& seg,
                            CallStats& stats) const {
  const auto pixels = static_cast<u64>(stats.pixels);

  // Image accesses under the strict-window-reuse model of the 2005 code.
  const AccessCounts per = software_accesses_per_pixel(call);
  stats.loads = per.loads * pixels;
  stats.stores = per.stores * pixels;

  // Dynamic instruction profile.
  const InstructionProfile per_pixel = software_profile_per_pixel(call, model_);
  stats.profile.control = per_pixel.control * pixels +
                          static_cast<u64>(model_.call_overhead_instr);
  stats.profile.address_calc = per_pixel.address_calc * pixels;
  stats.profile.pixel_op = per_pixel.pixel_op * pixels;
  stats.profile.memory = per_pixel.memory * pixels;

  // Segment mode adds the criterion tests: each loads the candidate through
  // the accessor chain and compares.
  const auto tests = static_cast<u64>(seg.criterion_tests);
  if (tests > 0) {
    stats.loads += tests;
    stats.profile.memory += tests;
    stats.profile.address_calc +=
        tests * static_cast<u64>(model_.addr_instr_per_access);
    stats.profile.pixel_op += 2 * tests;
  }

  // Segment mode also seeds its output with a wholesale copy of the input
  // frame (stats.passthrough_pixels).  The 2005 code did this as a flat
  // bulk copy — one load and one store per pixel, loop bookkeeping, no
  // accessor chain — so it is priced below the per-pixel processing rates.
  const auto copied = static_cast<u64>(stats.passthrough_pixels);
  if (copied > 0) {
    stats.loads += copied;
    stats.stores += copied;
    stats.profile.memory += 2 * copied;
    stats.profile.control += copied;
  }

  stats.model_seconds = model_.seconds(stats.profile);
}

}  // namespace ae::alib
