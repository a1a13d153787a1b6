// gme_table3: one client runs the Table 3 GME and mosaic loop over the four
// synthetic paper sequences, through build_pyramid, GmeEstimator::estimate
// and Mosaic on a DualPlatformBackend.
//
// Frames are rendered during setup, never inside the timed loop; the loop
// repeats a fixed frame range of every sequence until the run's time is up.
// Each pass over a sequence must reproduce gme::run_sequence_experiment for
// the same sequence and frame range exactly: iterations, call counts,
// modeled seconds, motion error and the rendered mosaic.
#include "gme_workload.hpp"

#include <cmath>
#include <future>

#include "gme/pyramid.hpp"
#include "gme/table3.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

namespace gme = ae::gme;
namespace serve = ae::serve;

/// Frames of each sequence one pass covers, as `table3_gme_speedup
/// --frames 30`.  The whole sequences do not fit a run; a shorter prefix
/// has cheaper frames than the rest (NOTES.md).
constexpr int kFramesPerSequence = 30;
/// Calls the traced run captures for the replays below the gme layer.
constexpr std::size_t kCapturedCalls = 64;

/// The seed changes the texture (and the pose jitter drawn from it); the
/// scripted camera motion of each paper sequence is unchanged.
ae::img::SyntheticSequence::Params sequence_params(ae::img::PaperSequence which,
                                                   u64 seed) {
  ae::img::SyntheticSequence::Params params =
      ae::img::paper_sequence_params(which);
  params.seed += seed * 1000003ull;
  return params;
}

gme::SequenceRunOptions run_options(int frames) {
  gme::SequenceRunOptions options;
  options.max_frames = frames;
  return options;
}

struct SequenceInput {
  std::string name;
  std::vector<img::Image> frames;
  std::vector<ae::img::CameraPose> poses;
  gme::SequenceExperiment reference;
};

SequenceInput prepare_sequence(ae::img::PaperSequence which, u64 seed,
                               int frames) {
  const ae::img::SyntheticSequence sequence(sequence_params(which, seed));
  SequenceInput in;
  in.name = sequence.name();
  for (int t = 0; t < frames; ++t) {
    in.frames.push_back(sequence.frame(t));
    in.poses.push_back(sequence.pose(t));
  }
  in.reference = gme::run_sequence_experiment(sequence, run_options(frames));
  return in;
}

struct SequenceOutcome {
  gme::SequenceExperiment exp;
  std::vector<double> item_ms;  ///< host time attributed to each frame
  i64 calls = 0;
  i64 fallbacks = 0;
};

/// The loop of gme::run_sequence_experiment over pre-rendered frames, with
/// the same accounting in the same order.  A frame's item time is its
/// pyramid, its estimate and its mosaic paste; the last frame also carries
/// the mosaic render.
SequenceOutcome drive_sequence(const SequenceInput& in, SpanRecorder* spans,
                               i64 first_item, CallCapture* capture,
                               const std::string& prefix) {
  const int frames = static_cast<int>(in.frames.size());
  const gme::SequenceRunOptions options = run_options(frames);
  gme::DualPlatformBackend dual(options.software_model, options.engine_config);
  SpanBackend traced(dual, spans, capture, prefix);
  alib::Backend& backend =
      spans != nullptr || capture != nullptr
          ? static_cast<alib::Backend&>(traced)
          : static_cast<alib::Backend&>(dual);
  gme::GmeEstimator estimator(backend, options.gme);

  SequenceOutcome out;
  out.item_ms.assign(in.frames.size(), 0.0);
  gme::SequenceExperiment& exp = out.exp;
  exp.name = in.name;
  exp.frames = frames;

  gme::Translation accumulated;
  std::vector<gme::Translation> placements{gme::Translation{}};
  double error_sum = 0.0;
  u64 pyramid_hl = 0;

  gme::Pyramid prev;
  i64 start = now_ns();
  {
    traced.set_item(first_item);
    ScopedSpan frame(spans, "gme.frame", first_item);
    ScopedSpan pyramid(spans, "gme.pyramid", first_item);
    prev = gme::build_pyramid(backend, in.frames[0],
                              options.gme.pyramid_levels);
  }
  out.item_ms[0] += ms_between(start, now_ns());

  for (int t = 1; t < frames; ++t) {
    const i64 item = first_item + t;
    start = now_ns();
    traced.set_item(item);
    ScopedSpan frame(spans, "gme.frame", item);
    gme::Pyramid cur;
    {
      ScopedSpan pyramid(spans, "gme.pyramid", item);
      cur = gme::build_pyramid(backend, in.frames[static_cast<std::size_t>(t)],
                               options.gme.pyramid_levels, &pyramid_hl);
    }
    gme::GmeResult result;
    {
      ScopedSpan estimate(spans, "gme.estimate", item);
      result = estimator.estimate(prev, cur);
    }
    exp.gme_iterations += result.iterations;
    accumulated = accumulated + result.motion;
    placements.push_back(gme::Translation{-accumulated.dx, -accumulated.dy});
    const ae::img::CameraPose& p0 = in.poses[0];
    const ae::img::CameraPose& pt = in.poses[static_cast<std::size_t>(t)];
    error_sum += std::hypot(-accumulated.dx - (pt.center_x - p0.center_x),
                            -accumulated.dy - (pt.center_y - p0.center_y));
    prev = std::move(cur);
    out.item_ms[static_cast<std::size_t>(t)] += ms_between(start, now_ns());
  }
  dual.add_high_level(pyramid_hl);
  dual.add_high_level(estimator.high_level_instr());
  exp.mean_motion_error_px = error_sum / std::max(1, frames - 1);

  const ae::Size frame_size = in.frames[0].size();
  ae::Point origin{};
  const ae::Size canvas =
      gme::Mosaic::required_canvas(frame_size, placements, origin);
  gme::Mosaic mosaic(canvas, origin);
  for (int t = 0; t < frames; ++t) {
    const auto f = static_cast<std::size_t>(t);
    start = now_ns();
    {
      ScopedSpan paste(spans, "gme.mosaic", first_item + t);
      mosaic.add_frame(in.frames[f], placements[f]);
    }
    dual.add_high_level(static_cast<u64>(frame_size.area()) * 15);
    out.item_ms[f] += ms_between(start, now_ns());
  }
  start = now_ns();
  {
    ScopedSpan render(spans, "gme.mosaic", first_item + frames - 1);
    exp.mosaic = mosaic.render();
    exp.mosaic_coverage = mosaic.coverage();
  }
  out.item_ms.back() += ms_between(start, now_ns());

  exp.pm_seconds = dual.software_platform_seconds();
  exp.fpga_seconds = dual.engine_platform_seconds();
  exp.intra_calls = dual.intra_calls();
  exp.inter_calls = dual.inter_calls();
  out.calls = traced.calls();
  out.fallbacks = traced.fallbacks();
  return out;
}

bool same_experiment(const gme::SequenceExperiment& x,
                     const gme::SequenceExperiment& y) {
  return x.frames == y.frames && x.pm_seconds == y.pm_seconds &&
         x.fpga_seconds == y.fpga_seconds && x.intra_calls == y.intra_calls &&
         x.inter_calls == y.inter_calls && x.gme_iterations == y.gme_iterations &&
         x.mean_motion_error_px == y.mean_motion_error_px &&
         x.mosaic_coverage == y.mosaic_coverage && x.mosaic == y.mosaic;
}

/// What the gme.* metrics count, summed over the sequence passes added.
struct GmeTotals {
  i64 sequences = 0;
  i64 frames = 0;
  i64 calls = 0;
  i64 iterations = 0;
  double motion_error = 0.0;
  double pm_seconds = 0.0;
  double fpga_seconds = 0.0;

  void add(const gme::SequenceExperiment& exp) {
    ++sequences;
    frames += exp.frames;
    calls += exp.intra_calls + exp.inter_calls;
    iterations += exp.gme_iterations;
    motion_error += exp.mean_motion_error_px;
    pm_seconds += exp.pm_seconds;
    fpga_seconds += exp.fpga_seconds;
  }
};

/// gme.* metrics: host times from the spans of `traced_frames` frames, and
/// the guards (counts, motion error, modeled speedup) from `guards`.
void add_gme_metrics(Metrics& out, const SpanIndex& index, i64 traced_frames,
                     const GmeTotals& guards) {
  const auto frames = static_cast<double>(guards.frames);
  add_p50(out, "gme.pyramid_ms", index.durations_ms("gme.pyramid"), "ms");
  add_p50(out, "gme.estimate_ms", index.durations_ms("gme.estimate"), "ms");
  add_p50(out, "gme.estimate_self_ms", index.self_ms("gme.estimate"), "ms");
  double mosaic_ms = 0.0;
  for (const double ms : index.durations_ms("gme.mosaic")) mosaic_ms += ms;
  add_metric(out, "gme.mosaic_ms_per_frame",
             ratio(mosaic_ms, static_cast<double>(traced_frames)), "ms",
             traced_frames);
  add_metric(out, "gme.calls_per_frame",
             ratio(static_cast<double>(guards.calls), frames), "calls",
             guards.frames);
  add_metric(out, "gme.iterations_per_frame",
             ratio(static_cast<double>(guards.iterations), frames), "count",
             guards.frames);
  add_metric(out, "gme.motion_error_px",
             ratio(guards.motion_error, static_cast<double>(guards.sequences)),
             "px", guards.sequences);
  add_metric(out, "gme.modeled_speedup",
             ratio(guards.pm_seconds, guards.fpga_seconds), "x",
             guards.sequences);
}

class GmeTable3 : public Workload {
 public:
  explicit GmeTable3(const RunConfig& config) : config_(config) {}

  const char* item_name() const override { return "frame"; }
  i64 window_items() const override {
    return kFramesPerSequence *
           static_cast<i64>(ae::img::all_paper_sequences().size());
  }

  void setup() override {
    std::vector<std::future<SequenceInput>> jobs;
    for (const ae::img::PaperSequence which : ae::img::all_paper_sequences())
      jobs.push_back(std::async(std::launch::async, prepare_sequence, which,
                                config_.seed, kFramesPerSequence));
    for (auto& job : jobs) sequences_.push_back(job.get());
    if (config_.corrupt_reference) sequences_[0].reference.inter_calls += 1;
  }

  /// Starts at the sequence after the last one a traced call drove, so an
  /// untraced slice of a traced run and the traced slice after it drive
  /// the same sequences, and the traced slices go round all four.
  LoopResult run(double seconds, SpanRecorder* spans) override {
    CallCapture* capture = spans != nullptr ? &capture_ : nullptr;
    LoopResult out;
    const i64 start = now_ns();
    const i64 deadline = start + static_cast<i64>(seconds * 1e9);
    out.start_ns = start;
    i64& item = next_item_;
    std::size_t s = next_sequence_;
    for (; now_ns() < deadline; s = (s + 1) % sequences_.size()) {
      const SequenceInput& in = sequences_[s];
      const auto frames = static_cast<i64>(in.frames.size());
      bool ok = false;
      SequenceOutcome outcome;
      try {
        outcome = drive_sequence(in, spans, item, capture, "");
        ok = same_experiment(outcome.exp, in.reference);
      } catch (const std::exception&) {
        outcome.item_ms.assign(in.frames.size(), 0.0);
      }
      out.attempted += frames;
      if (!ok) out.failed += frames;
      out.latencies_ms.insert(out.latencies_ms.end(), outcome.item_ms.begin(),
                              outcome.item_ms.end());
      // A frame's result is checked with its sequence's.
      out.done_ns.insert(out.done_ns.end(), in.frames.size(), now_ns());
      if (spans != nullptr) {
        traced_frames_ += frames;
        traced_calls_ += outcome.calls;
        traced_fallbacks_ += outcome.fallbacks;
      }
      item += frames;
    }
    if (spans != nullptr) next_sequence_ = s;
    out.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
    return out;
  }

  LayerReport layers(SpanRecorder& spans) override {
    LayerReport report;
    // Replays key spans by call, not by frame.
    std::vector<CallRef> calls = capture_.calls;
    for (std::size_t i = 0; i < calls.size(); ++i)
      calls[i].item = static_cast<i64>(i);

    const CallReplay replay = replay_calls(calls, spans, false);
    const std::vector<ae::analysis::CallProgram> programs =
        programs_from_calls(calls, 8);
    const AnalysisReplay analysis = replay_analysis(numbered(programs), spans);
    serve::FarmOptions farm_options;
    farm_options.shards = 2;
    const ServeReplay served = replay_serve(calls, farm_options, spans);
    hash_probe(sequences_[0].frames[0], spans);
    segment_probe(sequences_[0].frames[0], spans);

    const SpanIndex index(spans);
    Metrics& m = report.metrics;
    add_call_layer_metrics(m, index, replay);
    add_metric(m, "addresslib.interp_fallback_frac",
               ratio(static_cast<double>(traced_fallbacks_),
                     static_cast<double>(traced_calls_)),
               "frac", traced_calls_);
    double addresslib_ms = 0.0;
    for (const char* name : {"addresslib.kernel", "addresslib.interp"})
      for (const double ms : index.self_ms(name)) addresslib_ms += ms;
    double item_ms = 0.0;
    for (const char* name : {"gme.frame", "gme.mosaic"})
      for (const double ms : index.durations_ms(name)) item_ms += ms;
    add_metric(m, "addresslib.self_share", ratio(addresslib_ms, item_ms),
               "frac", traced_frames_);
    add_session_metrics(m, replay.session);
    add_analysis_metrics(m, index, analysis,
                         ratio(static_cast<double>(analysis.words_saved),
                               static_cast<double>(analysis.programs)));
    add_p50(m, "serve.submit_us", index.durations_ms("serve.submit"), "us",
            1e3);
    add_p50(m, "serve.wait_ms", index.durations_ms("serve.wait"), "ms");
    std::unordered_map<i64, double> farm_ms = index.ms_by_item("serve.submit");
    for (const auto& [call, ms] : index.ms_by_item("serve.wait"))
      farm_ms[call] += ms;
    add_p50(m, "serve.overhead_ms",
            remainder_per_item(farm_ms, {index.ms_by_item("core.session")}),
            "ms");
    add_farm_stat_metrics(m, served.stats, ae::core::EngineConfig{});
    // The guards over all four sequences: every traced pass equalled its
    // sequence's reference.
    add_gme_metrics(m, index, traced_frames_, reference_totals());
    report.mismatches =
        replay.mismatches + served.mismatches + analysis.failures;
    return report;
  }

  Metrics extra_end_to_end() const override {
    const GmeTotals t = reference_totals();
    return {Metric{"modeled_speedup", ratio(t.pm_seconds, t.fpga_seconds), "x",
                   t.sequences},
            Metric{"gme_iterations_per_frame",
                   ratio(static_cast<double>(t.iterations),
                         static_cast<double>(t.frames)),
                   "count", t.frames}};
  }

 private:
  GmeTotals reference_totals() const {
    GmeTotals totals;
    for (const SequenceInput& in : sequences_) totals.add(in.reference);
    return totals;
  }

  RunConfig config_;
  std::vector<SequenceInput> sequences_;
  CallCapture capture_{kCapturedCalls};
  i64 next_item_ = 0;
  std::size_t next_sequence_ = 0;
  // Over the traced passes.
  i64 traced_frames_ = 0;
  i64 traced_calls_ = 0;
  i64 traced_fallbacks_ = 0;
};

}  // namespace

LayerReport gme_probe(u64 seed, int frames, SpanRecorder& spans) {
  const SequenceInput in =
      prepare_sequence(ae::img::PaperSequence::Singapore, seed, frames);
  const SequenceOutcome outcome =
      drive_sequence(in, &spans, -1000, nullptr, "probe.");
  GmeTotals totals;
  totals.add(outcome.exp);
  LayerReport report;
  add_gme_metrics(report.metrics, SpanIndex(spans), outcome.exp.frames, totals);
  report.mismatches = same_experiment(outcome.exp, in.reference) ? 0 : 1;
  return report;
}

std::unique_ptr<Workload> make_gme_table3(const RunConfig& config) {
  return std::make_unique<GmeTable3>(config);
}

}  // namespace perfbench
