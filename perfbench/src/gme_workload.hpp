// Driving and measuring the gme layer, shared by the gme_table3 workload and
// the GME probe the farm workloads run in their traced runs.
#pragma once

#include "bench.hpp"
#include "spans.hpp"

namespace perfbench {

/// Runs a short GME sequence (the first `frames` frames of the first paper
/// sequence, seeded like gme_table3) with spans into `spans` and returns the
/// gme.* metrics.  Workloads that never drive the gme layer report these, so
/// the figures are present on every workload; NOTES.md marks them off-path.
/// Its addresslib spans are prefixed `probe.` so they stay out of the
/// workload's own addresslib figures.
LayerReport gme_probe(u64 seed, int frames, SpanRecorder& spans);

}  // namespace perfbench
