// Shared vocabulary of the repository benchmark: run configuration, the
// closed-loop result, metrics, and the workload interface main.cpp runs.
//
// Two time domains appear in the output and are never mixed: host wall time
// (std::chrono::steady_clock on the machine running the benchmark) and
// modeled time (cycles of the 66 MHz board).  Every metric is host time
// unless its name or NOTES.md says otherwise.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using ae::i32;
using ae::i64;
using ae::u64;

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON ("" = nowhere).
  std::string trace_file;
  /// Test hook: flips one value of the reference computed during setup, so
  /// the run must count failures.
  bool corrupt_reference = false;
};

/// Host wall clock, nanoseconds since an arbitrary process-local epoch.
inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(i64 start_ns, i64 end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

/// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// One closed-loop run: every item the clients sent, its latency from
/// sending to checked result, and whether the check passed.
struct LoopResult {
  i64 attempted = 0;
  i64 failed = 0;
  i64 start_ns = 0;
  double elapsed_s = 0.0;
  std::vector<double> latencies_ms;  ///< one per attempted item
  std::vector<i64> done_ns;          ///< when each item's check finished
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  i64 samples = 0;  ///< values the figure summarizes (1 for a ratio of sums)
};
using Metrics = std::vector<Metric>;

class SpanRecorder;

/// Per-layer results of a traced run: the metrics plus the count of replay
/// outputs that disagreed with their reference.
struct LayerReport {
  Metrics metrics;
  i64 mismatches = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one item is ("frame", "call", "program").
  virtual const char* item_name() const = 0;

  /// Items per statistics window: whole cycles of the workload's stream,
  /// so every window does the same mix of work, and enough items that a
  /// window's p90 has several samples beyond it.
  virtual i64 window_items() const = 0;

  /// Synthesizes inputs, computes references and builds the farm.  Called
  /// once, before run().
  virtual void setup() = 0;

  /// Runs the closed loop for `seconds` of host time.  When `spans` is not
  /// null, every call the benchmark makes into a layer is recorded there.
  /// May be called several times after one setup(); item ids then continue
  /// where the previous call left off, so they stay unique in the spans.
  virtual LoopResult run(double seconds, SpanRecorder* spans) = 0;

  /// Per-layer metrics: derived from the spans of a traced run() plus
  /// replays of that run's items against the lower layers.
  virtual LayerReport layers(SpanRecorder& spans) = 0;

  /// Workload-specific end-to-end figures printed for humans only (they are
  /// not in every workload, so they stay out of the JSON result).
  virtual Metrics extra_end_to_end() const { return {}; }
};

std::unique_ptr<Workload> make_gme_table3(const RunConfig& config);
std::unique_ptr<Workload> make_farm_cif_mix(const RunConfig& config);
std::unique_ptr<Workload> make_motion_program(const RunConfig& config);

}  // namespace perfbench
