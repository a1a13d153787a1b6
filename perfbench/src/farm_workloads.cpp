// The two farm workloads.  Both are closed loops: each client sends its
// next item only after the previous one returned and was checked.
//
// farm_cif_mix: 2 clients, one outstanding call each, against a 2-shard
// EngineFarm with default options.  The stream is farm_throughput's
// canonical mix, 3:1 intra GradientMag con8 to inter AbsDiff over 8
// recurring CIF frames.  Results must match a serial SoftwareBackend
// reference computed during setup, bit for bit.
//
// motion_program: 1 client against a 2-shard farm with optimize_on_submit
// and residency_plan on.  Each item is one surveillance program submitted
// through execute_program (DiffMask, Erode con8, Dilate con8, a pointwise
// CON_0 threshold aeopt folds onto the dilate, and a segment grow seeded at
// the intruder), on a CIF frame pair of its own.  Outputs must match
// analysis::run_program on a SoftwareBackend.  One client, because a
// second one shares a shard with the first for about half its programs
// (execute_program picks the home shard while the other program's shard
// sits idle between two calls), the latency distribution then has two
// modes with its median between them, and latency_p50_ms moves by 30% from
// run to run.
#include <algorithm>
#include <mutex>
#include <thread>

#include "analysis/optimizer.hpp"
#include "common/rng.hpp"
#include "gme_workload.hpp"
#include "image/synth.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

namespace analysis = ae::analysis;
namespace serve = ae::serve;

constexpr int kShards = 2;
/// Items of the traced run replayed against the lower layers.
constexpr std::size_t kReplayCalls = 96;
constexpr std::size_t kReplayPrograms = 12;
/// Frames of the GME probe the farm workloads report gme.* from.
constexpr int kGmeProbeFrames = 3;

/// Runs one closed-loop client thread per entry of `next` until `seconds`
/// pass.  Client c calls `step(c, k)` for its k-th item, k = next[c],
/// next[c] + 1, ..., and leaves next[c] at the item it would send next;
/// `step` returns whether the item's checked result was correct.
template <typename Step>
LoopResult closed_loop(double seconds, std::vector<i64>& next, Step step) {
  LoopResult out;
  std::mutex mu;
  const i64 start = now_ns();
  const i64 deadline = start + static_cast<i64>(seconds * 1e9);
  out.start_ns = start;
  std::vector<std::thread> threads;
  for (int c = 0; c < static_cast<int>(next.size()); ++c)
    threads.emplace_back([&, c] {
      std::vector<double> latencies;
      std::vector<i64> done;
      i64 failed = 0;
      i64& k = next[static_cast<std::size_t>(c)];
      for (; now_ns() < deadline; ++k) {
        const i64 sent = now_ns();
        bool ok = false;
        try {
          ok = step(c, k);
        } catch (const std::exception&) {
          ok = false;
        }
        done.push_back(now_ns());
        latencies.push_back(ms_between(sent, done.back()));
        if (!ok) ++failed;
      }
      std::lock_guard<std::mutex> lock(mu);
      out.latencies_ms.insert(out.latencies_ms.end(), latencies.begin(),
                              latencies.end());
      out.done_ns.insert(out.done_ns.end(), done.begin(), done.end());
      out.failed += failed;
    });
  for (std::thread& t : threads) t.join();
  out.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  out.attempted = static_cast<i64>(out.latencies_ms.size());
  return out;
}

/// The first `limit` items, by id, of a traced run.
std::vector<i64> traced_items(const SpanRecorder& spans, std::size_t limit) {
  std::vector<i64> items;
  for (const auto& [item, ms] : SpanIndex(spans).ms_by_item("farm.item"))
    items.push_back(item);
  std::sort(items.begin(), items.end());
  if (items.size() > limit) items.resize(limit);
  return items;
}

/// The deliberately corrupted reference of the benchmark's own test.
void flip_pixel(img::Image& image) {
  ae::img::Pixel& p = image.ref(7, 7);
  p.y = static_cast<ae::u8>(p.y ^ 1);
}

// ---------------------------------------------------------------------------

class FarmCifMix : public Workload {
 public:
  static constexpr int kFrames = 8;

  explicit FarmCifMix(const RunConfig& config) : config_(config) {}

  const char* item_name() const override { return "call"; }
  i64 window_items() const override { return 16 * kFrames; }

  void setup() override {
    for (int f = 0; f < kFrames; ++f)
      frames_.push_back(ae::img::make_test_frame(
          ae::img::formats::kCif,
          0xC1F0 + config_.seed * 131 + static_cast<u64>(f)));
    alib::SoftwareBackend software;
    for (int f = 0; f < kFrames; ++f) {
      intra_ref_.push_back(software.execute(intra_, frame(f)));
      inter_ref_.push_back(software.execute(inter_, frame(f), &frame(f + 1)));
    }
    if (config_.corrupt_reference) flip_pixel(intra_ref_[0].output);
    serve::FarmOptions options;
    options.shards = kShards;
    farm_ = std::make_unique<serve::EngineFarm>(options);
    // Warm the farm with one intra call per frame, one at a time.  Each
    // goes to the least-loaded shard, ties broken by the modeled shard
    // clock, so the shards alternate: 3, 1, 4, 6 land on shard 0 and 7, 0,
    // 2, 5 on shard 1.  In the loop every call then follows its frame's
    // affinity, and the inter calls (3, 4) and (7, 0) keep 4 and 0 where
    // they already are.  Left to the first timed calls, the placement
    // depends on host timing and throughput varies by a quarter from run to
    // run.
    for (const int f : {3, 7, 1, 0, 4, 2, 6, 5})
      (void)farm_->execute(intra_, frame(f));
    next_.assign(kShards, 0);
  }

  LoopResult run(double seconds, SpanRecorder* spans) override {
    // One client per shard (see client_item).
    return closed_loop(seconds, next_, [&](int client, i64 k) {
      const i64 item = client_item(client, k);
      const CallRef ref = stream(item);
      ScopedSpan whole(spans, "farm.item", item);
      std::future<alib::CallResult> future;
      {
        ScopedSpan submit(spans, "serve.submit", item);
        future = farm_->submit(ref.call, *ref.a, ref.b);
      }
      alib::CallResult result;
      {
        ScopedSpan wait(spans, "serve.wait", item);
        result = future.get();
      }
      ScopedSpan check(spans, "check", item);
      return same_result(result, *ref.expected);
    });
  }

  LayerReport layers(SpanRecorder& spans) override {
    std::vector<CallRef> calls;
    for (const i64 item : traced_items(spans, kReplayCalls))
      calls.push_back(stream(item));
    const CallReplay replay = replay_calls(calls, spans, true);
    const std::vector<analysis::CallProgram> programs =
        programs_from_calls(calls, 8);
    const AnalysisReplay analysis = replay_analysis(numbered(programs), spans);
    hash_probe(frames_[0], spans);
    segment_probe(frames_[0], spans);
    LayerReport gme = gme_probe(config_.seed, kGmeProbeFrames, spans);

    const SpanIndex index(spans);
    LayerReport report;
    Metrics& m = report.metrics;
    add_call_layer_metrics(m, index, replay);
    add_metric(m, "addresslib.interp_fallback_frac",
               ratio(static_cast<double>(replay.fallbacks),
                     static_cast<double>(replay.calls)),
               "frac", replay.calls);
    // The farm computes pixels with the interpreter: that is its
    // addresslib self time, over the farm latency of the same calls.
    std::unordered_map<i64, double> farm_ms = index.ms_by_item("serve.submit");
    for (const auto& [item, ms] : index.ms_by_item("serve.wait"))
      farm_ms[item] += ms;
    add_metric(m, "addresslib.self_share",
               share_over_items(index.ms_by_item("addresslib.interp"), farm_ms),
               "frac", replay.calls);
    const serve::FarmStats stats = farm_->stats();
    add_session_metrics(m, farm_session_stats(stats));
    add_analysis_metrics(m, index, analysis,
                         ratio(static_cast<double>(analysis.words_saved),
                               static_cast<double>(analysis.programs)));
    add_p50(m, "serve.submit_us", index.durations_ms("serve.submit"), "us",
            1e3);
    add_p50(m, "serve.wait_ms", index.durations_ms("serve.wait"), "ms");
    add_p50(m, "serve.overhead_ms",
            remainder_per_item(farm_ms, {index.ms_by_item("core.session")}),
            "ms");
    add_farm_stat_metrics(m, stats, farm_->config());
    m.insert(m.end(), gme.metrics.begin(), gme.metrics.end());
    report.mismatches = replay.mismatches + analysis.failures + gme.mismatches;
    return report;
  }

 private:
  const img::Image& frame(i64 f) const {
    return frames_[static_cast<std::size_t>(f % kFrames)];
  }

  /// Client c's k-th item.  Client 0 draws the stream items whose frames
  /// the warm-up placed on shard 0 (i mod 8 in {1, 3, 4, 6}), client 1
  /// those on shard 1; each keeps the 3:1 mix.  With both clients drawing
  /// from one shared stream, half the intra calls queue behind the other
  /// client's call, the latency distribution has two modes with its median
  /// between them, and latency_p50_ms moves by 30% from run to run.
  static i64 client_item(int client, i64 k) {
    static constexpr i64 kSlots[kShards][4] = {{1, 3, 4, 6}, {0, 2, 5, 7}};
    return (k / 4) * kFrames + kSlots[client][k % 4];
  }

  /// Item `i` of the canonical stream: every fourth call is the inter
  /// AbsDiff of frame i and its successor, the rest intra GradientMag.
  CallRef stream(i64 i) const {
    CallRef ref;
    const i64 f = i % kFrames;
    const bool inter = i % 4 == 3;
    ref.call = inter ? inter_ : intra_;
    ref.a = &frame(f);
    ref.b = inter ? &frame(f + 1) : nullptr;
    ref.expected = inter ? &inter_ref_[static_cast<std::size_t>(f)]
                         : &intra_ref_[static_cast<std::size_t>(f)];
    ref.item = i;
    return ref;
  }

  RunConfig config_;
  const alib::Call intra_ = alib::Call::make_intra(
      alib::PixelOp::GradientMag, alib::Neighborhood::con8());
  const alib::Call inter_ = alib::Call::make_inter(alib::PixelOp::AbsDiff);
  std::vector<img::Image> frames_;
  std::vector<alib::CallResult> intra_ref_;
  std::vector<alib::CallResult> inter_ref_;
  std::unique_ptr<serve::EngineFarm> farm_;
  std::vector<i64> next_;  ///< each client's next k
};

// ---------------------------------------------------------------------------

/// Program inputs in declaration order: current frame, previous frame.
struct Scene {
  std::vector<img::Image> inputs;
  ae::Point intruder;  ///< scripted position in the current frame
};

class MotionProgram : public Workload {
 public:
  /// Distinct frame pairs.  Far more frames than the 2 shards' 6 banks
  /// hold, so every program's inputs arrive cold.
  static constexpr int kPrograms = 24;
  static constexpr int kClients = 1;
  static constexpr i32 kRadius = 11;

  explicit MotionProgram(const RunConfig& config) : config_(config) {}

  const char* item_name() const override { return "program"; }
  i64 window_items() const override { return 4 * kPrograms; }

  void setup() override {
    // A static background kept below the intruder's luma, so DiffMask sees
    // the whole disk at both positions.
    img::Image background =
        ae::img::make_test_frame(ae::img::formats::kCif, 0x5EC0 + config_.seed);
    for (ae::img::Pixel& p : background.pixels())
      p.y = static_cast<ae::u8>(std::min<int>(p.y, 200));
    ae::Rng rng(config_.seed * 0x9E3779B97F4A7C15ull + 17);
    const ae::img::Pixel intruder = ae::img::Pixel::gray(255);
    alib::SoftwareBackend software;
    for (int k = 0; k < kPrograms; ++k) {
      const ae::Point before{rng.uniform(kRadius + 2, 352 - 60),
                             rng.uniform(kRadius + 2, 288 - 40)};
      const ae::Point after{before.x + 3 * kRadius, before.y + kRadius};
      Scene scene;
      scene.intruder = after;
      img::Image prev = background;
      ae::img::draw_disk(prev, before, kRadius, intruder);
      img::Image cur = background;
      ae::img::draw_disk(cur, after, kRadius, intruder);
      scene.inputs = {std::move(cur), std::move(prev)};
      programs_.push_back(make_program(after));
      refs_.push_back(
          analysis::run_program(programs_.back(), software, scene.inputs));
      scenes_.push_back(std::move(scene));
    }
    if (config_.corrupt_reference) flip_pixel(refs_[0].outputs[0]);
    serve::FarmOptions options;
    options.shards = kShards;
    options.optimize_on_submit = true;
    options.residency_plan = true;
    farm_ = std::make_unique<serve::EngineFarm>(options);
    next_.assign(kClients, 0);
  }

  LoopResult run(double seconds, SpanRecorder* spans) override {
    return closed_loop(seconds, next_, [&](int client, i64 n) {
      const i64 item = n * kClients + client;
      const auto k = static_cast<std::size_t>(item % kPrograms);
      ScopedSpan whole(spans, "farm.item", item);
      serve::ProgramExecution run;
      {
        ScopedSpan execute(spans, "serve.execute_program", item);
        run = farm_->execute_program(programs_[k], scenes_[k].inputs);
      }
      ScopedSpan check(spans, "check", item);
      return same_run(run.run, refs_[k]);
    });
  }

  LayerReport layers(SpanRecorder& spans) override {
    // The calls the farm ran are those of the optimized programs; capture
    // them (with their intermediate frames) through a software run.
    const std::vector<i64> items = traced_items(spans, kReplayPrograms);
    CallCapture capture(items.size() * 8);
    alib::SoftwareBackend software;
    std::vector<std::pair<i64, const analysis::CallProgram*>> submitted;
    for (const i64 item : items) {
      const auto k = static_cast<std::size_t>(item % kPrograms);
      submitted.emplace_back(item, &programs_[k]);
      SpanBackend capturing(software, nullptr, &capture);
      capturing.set_item(item);
      (void)analysis::run_program(
          analysis::optimize_program(programs_[k]).program, capturing,
          scenes_[k].inputs);
    }
    const CallReplay replay = replay_calls(capture.calls, spans, true);
    const AnalysisReplay analysis = replay_analysis(submitted, spans);
    serve::FarmOptions serve_options;
    serve_options.shards = kShards;
    const ServeReplay served = replay_serve(capture.calls, serve_options, spans);
    hash_probe(scenes_[0].inputs[0], spans);
    LayerReport gme = gme_probe(config_.seed, kGmeProbeFrames, spans);

    const SpanIndex index(spans);
    LayerReport report;
    Metrics& m = report.metrics;
    add_call_layer_metrics(m, index, replay);
    add_metric(m, "addresslib.interp_fallback_frac",
               ratio(static_cast<double>(replay.fallbacks),
                     static_cast<double>(replay.calls)),
               "frac", replay.calls);
    const std::unordered_map<i64, double> program_ms =
        index.ms_by_item("serve.execute_program");
    std::unordered_map<i64, double> interp_ms =
        index.ms_by_item("addresslib.interp");
    for (const auto& [item, ms] : index.ms_by_item("addresslib.segment"))
      interp_ms[item] += ms;
    add_metric(m, "addresslib.self_share",
               share_over_items(interp_ms, program_ms), "frac",
               static_cast<i64>(items.size()));
    const serve::FarmStats stats = farm_->stats();
    add_session_metrics(m, farm_session_stats(stats));
    add_analysis_metrics(
        m, index, analysis,
        ratio(static_cast<double>(stats.planned_words_saved),
              static_cast<double>(stats.planned_programs)));
    add_p50(m, "serve.submit_us", index.durations_ms("serve.submit"), "us",
            1e3);
    add_p50(m, "serve.wait_ms", index.durations_ms("serve.wait"), "ms");
    // What execute_program costs beyond its calls' session time and the
    // analysis passes it runs (aeopt, aealloc).
    add_p50(m, "serve.overhead_ms",
            remainder_per_item(program_ms,
                               {index.ms_by_item("core.session"),
                                index.ms_by_item("analysis.optimize"),
                                index.ms_by_item("analysis.alloc")}),
            "ms");
    add_farm_stat_metrics(m, stats, farm_->config());
    m.insert(m.end(), gme.metrics.begin(), gme.metrics.end());
    report.mismatches = replay.mismatches + served.mismatches +
                        analysis.failures + gme.mismatches;
    return report;
  }

 private:
  static analysis::CallProgram make_program(ae::Point intruder) {
    analysis::CallProgram p;
    const ae::Size cif = ae::img::formats::kCif;
    const i32 cur = p.add_input(cif, "cur");
    const i32 prev = p.add_input(cif, "prev");
    alib::OpParams mask_params;
    mask_params.threshold = 24;
    const i32 mask = p.add_call(
        alib::Call::make_inter(alib::PixelOp::DiffMask, ae::ChannelMask::y(),
                               ae::ChannelMask::y(), mask_params),
        cur, prev);
    const i32 eroded = p.add_call(
        alib::Call::make_intra(alib::PixelOp::Erode, alib::Neighborhood::con8()),
        mask);
    const i32 dilated = p.add_call(
        alib::Call::make_intra(alib::PixelOp::Dilate,
                               alib::Neighborhood::con8()),
        eroded);
    alib::OpParams binarize;
    binarize.threshold = 127;
    const i32 binary = p.add_call(
        alib::Call::make_intra(alib::PixelOp::Threshold,
                               alib::Neighborhood::con0(), ae::ChannelMask::y(),
                               ae::ChannelMask::y(), binarize),
        dilated);
    alib::SegmentSpec spec;
    spec.seeds = {intruder};
    spec.luma_threshold = 0;
    const i32 object = p.add_call(
        alib::Call::make_segment(alib::PixelOp::Copy, alib::Neighborhood::con0(),
                                 spec, ae::ChannelMask::y(),
                                 ae::ChannelMask::y().with(ae::Channel::Alfa)),
        binary);
    p.mark_output(object);
    return p;
  }

  static bool same_run(const analysis::ProgramRunResult& x,
                       const analysis::ProgramRunResult& y) {
    alib::CallResult a;
    alib::CallResult b;
    if (x.outputs != y.outputs) return false;
    a.side = x.side;
    b.side = y.side;
    a.segments = x.segments;
    b.segments = y.segments;
    const auto by_id = [](const alib::SegmentInfo& l,
                          const alib::SegmentInfo& r) { return l.id < r.id; };
    std::sort(a.segments.begin(), a.segments.end(), by_id);
    std::sort(b.segments.begin(), b.segments.end(), by_id);
    return same_result(a, b);
  }

  RunConfig config_;
  std::vector<Scene> scenes_;
  std::vector<analysis::CallProgram> programs_;
  std::vector<analysis::ProgramRunResult> refs_;
  std::unique_ptr<serve::EngineFarm> farm_;
  std::vector<i64> next_;  ///< each client's next n
};

}  // namespace

std::unique_ptr<Workload> make_farm_cif_mix(const RunConfig& config) {
  return std::make_unique<FarmCifMix>(config);
}

std::unique_ptr<Workload> make_motion_program(const RunConfig& config) {
  return std::make_unique<MotionProgram>(config);
}

}  // namespace perfbench
