#include "gme/table3.hpp"

#include <cmath>

namespace ae::gme {

SequenceExperiment run_sequence_experiment(
    const img::SyntheticSequence& sequence,
    const SequenceRunOptions& options) {
  SequenceExperiment exp;
  exp.name = sequence.name();
  const int frames = options.max_frames > 0
                         ? std::min(options.max_frames,
                                    sequence.frame_count())
                         : sequence.frame_count();
  exp.frames = frames;
  AE_EXPECTS(frames >= 2, "a sequence experiment needs at least two frames");

  DualPlatformBackend backend(options.software_model, options.engine_config);
  GmeEstimator estimator(backend, options.gme);

  // Accumulated motion of frame t relative to frame 0, and the scripted
  // ground truth for the quality diagnostic.
  Translation accumulated;
  std::vector<Translation> placements{Translation{}};
  double error_sum = 0.0;

  img::Image prev_frame = sequence.frame(0);
  Pyramid prev_pyr =
      build_pyramid(backend, prev_frame, options.gme.pyramid_levels);
  u64 pyramid_hl = 0;

  for (int t = 1; t < frames; ++t) {
    const img::Image cur_frame = sequence.frame(t);
    Pyramid cur_pyr = build_pyramid(backend, cur_frame,
                                    options.gme.pyramid_levels, &pyramid_hl);
    const GmeResult gme = estimator.estimate(prev_pyr, cur_pyr);
    exp.gme_iterations += gme.iterations;
    accumulated = accumulated + gme.motion;
    placements.push_back(Translation{-accumulated.dx, -accumulated.dy});

    // Scripted truth: the camera center displacement since frame 0 equals
    // the negated accumulated estimate (see gme/mosaic.cpp derivation).
    const img::CameraPose p0 = sequence.pose(0);
    const img::CameraPose pt = sequence.pose(t);
    const double true_dx = pt.center_x - p0.center_x;
    const double true_dy = pt.center_y - p0.center_y;
    error_sum += std::hypot(-accumulated.dx - true_dx,
                            -accumulated.dy - true_dy);

    prev_pyr = std::move(cur_pyr);
    prev_frame = cur_frame;
  }
  backend.add_high_level(pyramid_hl);
  backend.add_high_level(estimator.high_level_instr());
  exp.mean_motion_error_px = error_sum / std::max(1, frames - 1);

  if (options.build_mosaic) {
    Point origin{};
    const Size canvas = Mosaic::required_canvas(sequence.frame_size(),
                                                placements, origin);
    Mosaic mosaic(canvas, origin);
    // Re-walk the sequence pasting every frame at its placement.  The blend
    // itself is host-side work in this reproduction (priced per pixel).
    for (int t = 0; t < frames; ++t) {
      mosaic.add_frame(sequence.frame(t),
                       placements[static_cast<std::size_t>(t)]);
      backend.add_high_level(
          static_cast<u64>(sequence.frame_size().area()) * 15);
    }
    exp.mosaic = mosaic.render();
    exp.mosaic_coverage = mosaic.coverage();
  }

  exp.pm_seconds = backend.software_platform_seconds();
  exp.fpga_seconds = backend.engine_platform_seconds();
  exp.intra_calls = backend.intra_calls();
  exp.inter_calls = backend.inter_calls();
  return exp;
}

}  // namespace ae::gme
