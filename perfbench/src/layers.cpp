#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "analysis/alloc.hpp"
#include "analysis/optimizer.hpp"
#include "analysis/planner.hpp"
#include "analysis/verifier.hpp"
#include "core/analytic.hpp"
#include "core/session.hpp"

namespace perfbench {

namespace analysis = ae::analysis;
namespace core = ae::core;
namespace serve = ae::serve;

void CallCapture::add(const alib::Call& call, const img::Image& a,
                      const img::Image* b, const alib::CallResult& result,
                      i64 item) {
  if (full()) return;
  CallRef ref;
  ref.call = call;
  ref.a = &frames_.emplace_back(a);
  if (b != nullptr) ref.b = &frames_.emplace_back(*b);
  ref.expected = &results_.emplace_back(result);
  ref.item = item;
  calls.push_back(std::move(ref));
}

SpanBackend::SpanBackend(alib::Backend& inner, SpanRecorder* spans,
                         CallCapture* capture, std::string prefix)
    : inner_(&inner),
      spans_(spans),
      capture_(capture),
      kernel_name_(prefix + "addresslib.kernel"),
      interp_name_(prefix + "addresslib.interp") {}

alib::CallResult SpanBackend::execute(const alib::Call& call,
                                      const img::Image& a,
                                      const img::Image* b) {
  const bool lowered = alib::KernelBackend::supports(call);
  ++calls_;
  if (!lowered) ++fallbacks_;
  alib::CallResult result;
  {
    ScopedSpan span(spans_, lowered ? kernel_name_ : interp_name_, item_);
    result = inner_->execute(call, a, b);
  }
  if (capture_ != nullptr) capture_->add(call, a, b, result, item_);
  return result;
}

namespace {

bool same_side(const alib::SideAccum& x, const alib::SideAccum& y) {
  // gme_persp holds doubles; bit equality is the contract, so memcmp.
  return x.sad == y.sad && x.histogram == y.histogram && x.gme == y.gme &&
         x.gme_affine == y.gme_affine &&
         std::memcmp(x.gme_persp.data(), y.gme_persp.data(),
                     sizeof(double) * x.gme_persp.size()) == 0;
}

bool same_segment(const alib::SegmentInfo& x, const alib::SegmentInfo& y) {
  return x.id == y.id && x.seed == y.seed && x.pixel_count == y.pixel_count &&
         x.bbox == y.bbox && x.geodesic_radius == y.geodesic_radius &&
         x.sum_y == y.sum_y;
}

/// Calls timed back to back to resolve the analytic model's sub-µs cost.
constexpr int kAnalyticRepeats = 64;

}  // namespace

bool same_result(const alib::CallResult& x, const alib::CallResult& y) {
  if (!(x.output == y.output) || !same_side(x.side, y.side) ||
      x.segments.size() != y.segments.size())
    return false;
  for (std::size_t i = 0; i < x.segments.size(); ++i)
    if (!same_segment(x.segments[i], y.segments[i])) return false;
  return true;
}

CallReplay replay_calls(const std::vector<CallRef>& calls, SpanRecorder& spans,
                        bool addresslib) {
  CallReplay out;
  alib::SoftwareBackend software;
  core::EngineSession session;
  for (const CallRef& ref : calls) {
    ++out.calls;
    if (!alib::KernelBackend::supports(ref.call)) ++out.fallbacks;
    alib::CallResult interp;
    if (addresslib) {
      const bool segment = ref.call.mode == alib::Mode::Segment;
      {
        ScopedSpan span(&spans,
                        segment ? "addresslib.segment" : "addresslib.interp",
                        ref.item);
        interp = alib::execute_functional(ref.call, *ref.a, ref.b);
      }
      alib::CallResult kernel;
      {
        ScopedSpan span(&spans, "addresslib.kernel", ref.item);
        kernel = software.execute(ref.call, *ref.a, ref.b);
      }
      if (!same_result(interp, kernel)) ++out.mismatches;
    }
    const alib::CallResult& reference =
        ref.expected != nullptr ? *ref.expected : interp;
    alib::CallResult served;
    {
      ScopedSpan span(&spans, "core.session", ref.item);
      served = session.execute(ref.call, *ref.a, ref.b);
    }
    if (!same_result(served, reference)) ++out.mismatches;
    {
      ScopedSpan span(&spans, "core.hash_call", ref.item);
      (void)core::frame_content_hash(*ref.a);
      if (ref.b != nullptr) (void)core::frame_content_hash(*ref.b);
      (void)core::frame_content_hash(served.output);
    }
    const i64 processed = ref.call.mode == alib::Mode::Segment
                              ? reference.stats.pixels
                              : -1;
    const i64 start = now_ns();
    for (int r = 0; r < kAnalyticRepeats; ++r)
      (void)core::analytic_run_stats(session.config(), ref.call, ref.a->size(),
                                     processed);
    out.analytic_us.push_back(static_cast<double>(now_ns() - start) * 1e-3 /
                              kAnalyticRepeats);
  }
  out.session = session.stats();
  return out;
}

std::vector<analysis::CallProgram> programs_from_calls(
    const std::vector<CallRef>& calls, std::size_t size) {
  std::vector<analysis::CallProgram> programs;
  std::unordered_map<const img::Image*, i32> inputs;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (i % size == 0) {
      programs.emplace_back();
      inputs.clear();
    }
    analysis::CallProgram& program = programs.back();
    const auto input = [&](const img::Image* frame) {
      const auto [it, added] = inputs.emplace(frame, 0);
      if (added) it->second = program.add_input(frame->size());
      return it->second;
    };
    const i32 a = input(calls[i].a);
    const i32 b = calls[i].b != nullptr ? input(calls[i].b) : analysis::kNoFrame;
    program.mark_output(program.add_call(calls[i].call, a, b));
  }
  return programs;
}

std::vector<std::pair<i64, const analysis::CallProgram*>> numbered(
    const std::vector<analysis::CallProgram>& programs) {
  std::vector<std::pair<i64, const analysis::CallProgram*>> out;
  for (std::size_t i = 0; i < programs.size(); ++i)
    out.emplace_back(static_cast<i64>(i), &programs[i]);
  return out;
}

AnalysisReplay replay_analysis(
    const std::vector<std::pair<i64, const analysis::CallProgram*>>& programs,
    SpanRecorder& spans) {
  AnalysisReplay out;
  for (const auto& [item, program] : programs) {
    ++out.programs;
    out.calls_submitted += static_cast<i64>(program->calls().size());
    {
      ScopedSpan span(&spans, "analysis.verify", item);
      if (analysis::verify_program(*program).has_errors()) ++out.failures;
    }
    analysis::OptimizeResult optimized;
    {
      ScopedSpan span(&spans, "analysis.optimize", item);
      optimized = analysis::optimize_program(*program);
    }
    out.calls_kept += static_cast<i64>(optimized.program.calls().size());
    {
      ScopedSpan span(&spans, "analysis.alloc", item);
      out.words_saved +=
          analysis::allocate_residency(optimized.program).words_saved;
    }
    {
      ScopedSpan span(&spans, "analysis.plan", item);
      const analysis::ProgramPlan plan =
          analysis::plan_program(optimized.program);
      if (plan.calls.size() != optimized.program.calls().size())
        ++out.failures;
    }
  }
  return out;
}

ServeReplay replay_serve(const std::vector<CallRef>& calls,
                         const serve::FarmOptions& options,
                         SpanRecorder& spans) {
  ServeReplay out;
  serve::EngineFarm farm(options);
  for (const CallRef& ref : calls) {
    std::future<alib::CallResult> future;
    {
      ScopedSpan span(&spans, "serve.submit", ref.item);
      future = farm.submit(ref.call, *ref.a, ref.b);
    }
    alib::CallResult result;
    {
      ScopedSpan span(&spans, "serve.wait", ref.item);
      result = future.get();
    }
    if (ref.expected == nullptr || !same_result(result, *ref.expected))
      ++out.mismatches;
  }
  farm.drain();
  out.stats = farm.stats();
  return out;
}

void hash_probe(const img::Image& frame, SpanRecorder& spans) {
  for (int r = 0; r < 16; ++r) {
    ScopedSpan span(&spans, "core.hash", r);
    (void)core::frame_content_hash(frame);
  }
}

void segment_probe(const img::Image& frame, SpanRecorder& spans) {
  alib::SegmentSpec spec;
  spec.seeds = {ae::Point{frame.width() / 2, frame.height() / 2}};
  spec.luma_threshold = 6;
  const alib::Call grow = alib::Call::make_segment(
      alib::PixelOp::Copy, alib::Neighborhood::con0(), spec,
      ae::ChannelMask::y(), ae::ChannelMask::y().with(ae::Channel::Alfa));
  for (int r = 0; r < 5; ++r) {
    ScopedSpan span(&spans, "addresslib.segment", r);
    (void)alib::execute_functional(grow, frame);
  }
}

void add_metric(Metrics& out, std::string name, double value,
                std::string unit, i64 samples) {
  if (!std::isfinite(value)) value = 0.0;
  out.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void add_p50(Metrics& out, std::string name, const std::vector<double>& values,
             std::string unit, double scale) {
  add_metric(out, std::move(name), median(values) * scale, std::move(unit),
             static_cast<i64>(values.size()));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void add_call_layer_metrics(Metrics& out, const SpanIndex& index,
                            const CallReplay& replay) {
  add_p50(out, "addresslib.kernel_call_ms",
          index.durations_ms("addresslib.kernel"), "ms");
  add_p50(out, "addresslib.interp_call_ms",
          index.durations_ms("addresslib.interp"), "ms");
  add_p50(out, "addresslib.segment_call_ms",
          index.durations_ms("addresslib.segment"), "ms");
  add_p50(out, "core.session_call_ms", index.durations_ms("core.session"),
          "ms");
  add_p50(out, "core.hash_ms", index.durations_ms("core.hash"), "ms");
  add_p50(out, "core.hash_ms_per_call", index.durations_ms("core.hash_call"),
          "ms");
  add_p50(out, "core.analytic_us", replay.analytic_us, "us");
}

void add_analysis_metrics(Metrics& out, const SpanIndex& index,
                          const AnalysisReplay& replay,
                          double words_saved_per_program) {
  add_p50(out, "analysis.verify_us", index.durations_ms("analysis.verify"),
          "us", 1e3);
  add_p50(out, "analysis.optimize_us",
          index.durations_ms("analysis.optimize"), "us", 1e3);
  add_p50(out, "analysis.alloc_us", index.durations_ms("analysis.alloc"), "us",
          1e3);
  add_p50(out, "analysis.plan_us", index.durations_ms("analysis.plan"), "us",
          1e3);
  add_metric(out, "analysis.calls_kept_frac",
             ratio(static_cast<double>(replay.calls_kept),
                   static_cast<double>(replay.calls_submitted)),
             "frac", replay.calls_submitted);
  add_metric(out, "analysis.words_saved_per_program", words_saved_per_program,
             "words", replay.programs);
}

void add_farm_stat_metrics(Metrics& out, const serve::FarmStats& stats,
                           const core::EngineConfig& config) {
  const auto submitted = static_cast<double>(stats.submitted);
  add_metric(out, "serve.affinity_hit_frac",
             ratio(static_cast<double>(stats.affinity_hits), submitted),
             "frac", stats.submitted);
  add_metric(out, "serve.spill_frac",
             ratio(static_cast<double>(stats.affinity_spills), submitted),
             "frac", stats.submitted);
  add_metric(out, "serve.batch_mean",
             ratio(submitted, static_cast<double>(stats.batches)), "calls",
             stats.batches);
  add_metric(out, "serve.peak_queue_depth",
             static_cast<double>(stats.peak_queue_depth), "calls", 1);
  add_metric(out, "serve.modeled_calls_per_s",
             stats.throughput_calls_per_s(config), "1/s", stats.completed);
}

core::SessionStats farm_session_stats(const serve::FarmStats& stats) {
  core::SessionStats sum;
  for (const serve::ShardStats& shard : stats.shards) {
    sum.calls += shard.session.calls;
    sum.inputs_transferred += shard.session.inputs_transferred;
    sum.inputs_reused += shard.session.inputs_reused;
    sum.cycles += shard.session.cycles;
  }
  return sum;
}

void add_session_metrics(Metrics& out, const core::SessionStats& session) {
  const i64 inputs = session.inputs_reused + session.inputs_transferred;
  add_metric(out, "core.inputs_reused_frac",
             ratio(static_cast<double>(session.inputs_reused),
                   static_cast<double>(inputs)),
             "frac", inputs);
  add_metric(out, "core.modeled_cycles_per_call",
             ratio(static_cast<double>(session.cycles),
                   static_cast<double>(session.calls)),
             "cycles", session.calls);
}

double share_over_items(const std::unordered_map<i64, double>& part,
                        const std::unordered_map<i64, double>& whole) {
  double num = 0.0;
  double den = 0.0;
  for (const auto& [item, value] : part) {
    const auto it = whole.find(item);
    if (it == whole.end()) continue;
    num += value;
    den += it->second;
  }
  return ratio(num, den);
}

std::vector<double> remainder_per_item(
    const std::unordered_map<i64, double>& whole,
    const std::vector<std::unordered_map<i64, double>>& parts) {
  std::vector<double> out;
  for (const auto& [item, value] : whole) {
    double rest = value;
    bool complete = true;
    for (const auto& part : parts) {
      const auto it = part.find(item);
      if (it == part.end()) {
        complete = false;
        break;
      }
      rest -= it->second;
    }
    if (complete) out.push_back(rest);
  }
  return out;
}

}  // namespace perfbench
