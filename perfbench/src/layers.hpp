// Replays of a traced run's items against the lower layers.
//
// Layers below the farm cannot be reached from outside it, so the traced
// run replays the call and program stream it sent directly against them:
// the interpreter (alib::execute_functional), the kernels (through
// alib::SoftwareBackend), an EngineSession the benchmark owns, the content
// hash, the analytic timing model, the analysis passes, and a fresh farm.
// Every replay output is checked against the workload's reference.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "addresslib/addresslib.hpp"
#include "analysis/program.hpp"
#include "serve/farm.hpp"
#include "spans.hpp"

namespace perfbench {

namespace alib = ae::alib;
namespace img = ae::img;

/// One call of a workload's stream, with the reference result its output
/// must equal (null: the interpreter's result is the reference).
struct CallRef {
  alib::Call call;
  const img::Image* a = nullptr;
  const img::Image* b = nullptr;
  const alib::CallResult* expected = nullptr;
  i64 item = -1;
};

/// Owns copies of the frames and results of captured calls.
class CallCapture {
 public:
  explicit CallCapture(std::size_t limit) : limit_(limit) {}
  bool full() const { return calls.size() >= limit_; }
  void add(const alib::Call& call, const img::Image& a, const img::Image* b,
           const alib::CallResult& result, i64 item);

  std::vector<CallRef> calls;

 private:
  std::size_t limit_;
  std::deque<img::Image> frames_;  // deque: stable addresses
  std::deque<alib::CallResult> results_;
};

/// Backend wrapper that records one span per call, named
/// `<prefix>addresslib.kernel` when the kernel backend has a lowering for
/// the call and `<prefix>addresslib.interp` when it falls back to the
/// interpreter; optionally captures the calls as well.
class SpanBackend : public alib::Backend {
 public:
  SpanBackend(alib::Backend& inner, SpanRecorder* spans,
              CallCapture* capture = nullptr, std::string prefix = "");

  std::string name() const override { return inner_->name(); }
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override;

  void set_item(i64 item) { item_ = item; }
  i64 calls() const { return calls_; }
  i64 fallbacks() const { return fallbacks_; }

 private:
  alib::Backend* inner_;
  SpanRecorder* spans_;
  CallCapture* capture_;
  std::string kernel_name_;
  std::string interp_name_;
  i64 item_ = -1;
  i64 calls_ = 0;
  i64 fallbacks_ = 0;
};

/// True when two call results are bit-identical: every channel of the
/// output, every side-port accumulator, and the segment records.
bool same_result(const alib::CallResult& x, const alib::CallResult& y);

struct CallReplay {
  i64 calls = 0;
  i64 fallbacks = 0;  ///< calls KernelBackend::supports() rejects
  i64 mismatches = 0;
  ae::core::SessionStats session;
  std::vector<double> analytic_us;  ///< analytic_run_stats, one per call
};

/// Replays `calls` in order.  Spans per call: `addresslib.interp` (or
/// `addresslib.segment` for segment calls) and `addresslib.kernel` when
/// `addresslib` is set, then `core.session` on one session that sees the
/// whole stream, then `core.hash_call` (a hash of each input and of the
/// output).
CallReplay replay_calls(const std::vector<CallRef>& calls, SpanRecorder& spans,
                        bool addresslib);

struct AnalysisReplay {
  i64 programs = 0;
  i64 calls_submitted = 0;
  i64 calls_kept = 0;  ///< after aeopt
  ae::u64 words_saved = 0;
  i64 failures = 0;  ///< programs that failed verification or planning
};

/// Runs the analysis stack the farm runs on a submitted program: spans
/// `analysis.verify`, `analysis.optimize` (aeopt, which includes aedom),
/// then `analysis.alloc` and `analysis.plan` on the optimized program.
AnalysisReplay replay_analysis(
    const std::vector<std::pair<i64, const ae::analysis::CallProgram*>>&
        programs,
    SpanRecorder& spans);

/// A call stream cut into programs of `size` calls: in each, every distinct
/// input frame is an external input and every result a program output.
std::vector<ae::analysis::CallProgram> programs_from_calls(
    const std::vector<CallRef>& calls, std::size_t size);

/// (index, program) pairs, the form replay_analysis takes.
std::vector<std::pair<i64, const ae::analysis::CallProgram*>> numbered(
    const std::vector<ae::analysis::CallProgram>& programs);

struct ServeReplay {
  ae::serve::FarmStats stats;
  i64 mismatches = 0;
};

/// Submits `calls` one at a time (one client, closed loop) to a fresh farm
/// built with `options`.  Spans `serve.submit` and `serve.wait`.  Every
/// call needs a reference (`expected`).
ServeReplay replay_serve(const std::vector<CallRef>& calls,
                         const ae::serve::FarmOptions& options,
                         SpanRecorder& spans);

/// Spans `core.hash` around core::frame_content_hash of `frame`, repeated.
void hash_probe(const img::Image& frame, SpanRecorder& spans);

/// Spans `addresslib.segment` around a segment grow seeded at the centre
/// of `frame`, for workloads whose stream has no segment calls.
void segment_probe(const img::Image& frame, SpanRecorder& spans);

/// Metric helpers.
void add_metric(Metrics& out, std::string name, double value,
                std::string unit, i64 samples);
/// Adds the median of `values` times `scale` ("p50 of ..." metrics).
void add_p50(Metrics& out, std::string name, const std::vector<double>& values,
             std::string unit, double scale = 1.0);
double ratio(double num, double den);

/// The layer metrics every workload derives the same way from the spans
/// and the call replay: addresslib.kernel_call_ms, interp_call_ms,
/// segment_call_ms, core.session_call_ms, hash_ms, hash_ms_per_call,
/// analytic_us.
void add_call_layer_metrics(Metrics& out, const SpanIndex& index,
                            const CallReplay& replay);

/// analysis.* metrics from an analysis replay's spans and counts.
/// `words_saved_per_program` is passed in: the farm's own figure where the
/// workload runs plans, the replay's otherwise.
void add_analysis_metrics(Metrics& out, const SpanIndex& index,
                          const AnalysisReplay& replay,
                          double words_saved_per_program);

/// serve.* counters from a farm's stats (serve.submit_us, wait_ms and
/// overhead_ms come from spans and are added by the workload).
void add_farm_stat_metrics(Metrics& out, const ae::serve::FarmStats& stats,
                           const ae::core::EngineConfig& config);

/// The session counters add_session_metrics reads, summed over every shard.
ae::core::SessionStats farm_session_stats(const ae::serve::FarmStats& stats);

/// core.inputs_reused_frac and core.modeled_cycles_per_call (modeled).
void add_session_metrics(Metrics& out, const ae::core::SessionStats& session);

/// Σ part[i] / Σ whole[i] over the items present in both maps.
double share_over_items(const std::unordered_map<i64, double>& part,
                        const std::unordered_map<i64, double>& whole);

/// whole[i] - Σ parts[i] for every item of `whole` present in all parts.
std::vector<double> remainder_per_item(
    const std::unordered_map<i64, double>& whole,
    const std::vector<std::unordered_map<i64, double>>& parts);

}  // namespace perfbench
