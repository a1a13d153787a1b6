// perfbench — the repository benchmark binary.
//
//   perfbench --workload <gme_table3|farm_cif_mix|motion_program>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--corrupt-reference]
//
// Sets the workload up several times (setup_s is the median), then:
//   --trace 0  runs the closed loop for --seconds and reports the
//              end-to-end metrics;
//   --trace 1  runs it in slices that alternate untraced and traced,
//              replays the traced items against the lower layers, and
//              reports the per-layer metrics plus trace_overhead_frac; the
//              spans go to --trace-file as Chrome trace-event JSON.
// The library runs with its defaults: kernel lanes from AE_THREADS or the
// core count, glibc's allocator settings.
// Every line but the last is for humans.  The last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output matched its reference, 1 when one did
// not, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <gme_table3|farm_cif_mix|"
               "motion_program> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>] [--corrupt-reference]\n";
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--trace-file") {
      o.trace_file = value();
    } else if (arg == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::unique_ptr<Workload> make_workload(const RunConfig& config) {
  if (config.workload == "gme_table3") return make_gme_table3(config);
  if (config.workload == "farm_cif_mix") return make_farm_cif_mix(config);
  if (config.workload == "motion_program") return make_motion_program(config);
  usage(("unknown workload " + config.workload).c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const char* heading, const Metrics& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics)
    std::printf("  %-36s %14.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
}

void print_result(bool correct, i64 attempted, i64 failed,
                  const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// A run needs this many windows for their median to be its figure.
/// gme_table3 completes 3 windows of 120 frames in a run; the median of so
/// few discards most of the run and is no longer robust: over ten 30 s
/// runs on a shared 4-vCPU host, one seed each, its throughput spread by
/// 0.19 of the median against 0.14 over the whole run, and its p50 by 0.16
/// against 0.08 (interquartile range over median).
constexpr std::size_t kMinWindows = 5;

/// Throughput and latency percentiles of a loop, each the median over
/// consecutive windows of `window` completions.  The host this runs on
/// has bursts in which everything slows; a burst then moves the windows
/// it covers, not the figure.  A run of fewer than kMinWindows windows is
/// one window.
struct WindowedStats {
  double throughput_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  i64 windows = 0;
  i64 window_items = 0;
};

WindowedStats windowed(const LoopResult& loop, i64 window) {
  std::vector<std::size_t> order(loop.done_ns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return loop.done_ns[x] < loop.done_ns[y];
  });
  const auto size =
      order.size() < kMinWindows * static_cast<std::size_t>(window)
          ? std::max<std::size_t>(1, order.size())
          : static_cast<std::size_t>(window);
  std::vector<double> rates, p50s, p90s;
  i64 prev = loop.start_ns;
  for (std::size_t begin = 0; begin + size <= order.size(); begin += size) {
    std::vector<double> latencies;
    for (std::size_t i = begin; i < begin + size; ++i)
      latencies.push_back(loop.latencies_ms[order[i]]);
    const i64 end = loop.done_ns[order[begin + size - 1]];
    rates.push_back(static_cast<double>(size) * 1e9 /
                    static_cast<double>(std::max<i64>(1, end - prev)));
    prev = end;
    p50s.push_back(percentile(latencies, 0.50));
    p90s.push_back(percentile(latencies, 0.90));
  }
  return {median(rates), median(p50s), median(p90s),
          static_cast<i64>(rates.size()), static_cast<i64>(size)};
}

/// Setups run at least kMinSetupReps times and, while they have taken less
/// than kSetupBudgetS in total, again up to kMaxSetupReps times, so the
/// median of a cheap setup rests on many samples.
constexpr int kMinSetupReps = 3;
constexpr double kSetupBudgetS = 2.0;
constexpr int kMaxSetupReps = 25;

/// The traced run alternates untraced and traced slices, this many in all,
/// so that both sides of trace_overhead_frac see the same stretch of the
/// host.
constexpr int kTraceSlices = 6;

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse(argc, argv);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  // setup_s: input synthesis, references and farm construction, each time
  // on a fresh workload.  The previous one is torn down first, outside the
  // timed region; the last one is the one the loop runs on.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetupReps ||
         (setup_total_s < kSetupBudgetS &&
          static_cast<int>(setup_s.size()) < kMaxSetupReps)) {
    workload.reset();
    workload = make_workload(config);
    const i64 start = now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    setup_total_s += setup_s.back();
  }

  if (!config.trace) {
    const LoopResult loop = workload->run(config.seconds, nullptr);
    const auto items = static_cast<i64>(loop.latencies_ms.size());
    const WindowedStats stats = windowed(loop, workload->window_items());
    Metrics e2e;
    e2e.push_back({"throughput_per_s", stats.throughput_per_s, "1/s", items});
    e2e.push_back({"latency_p50_ms", stats.p50_ms, "ms", items});
    e2e.push_back({"setup_s", median(setup_s), "s",
                   static_cast<i64>(setup_s.size())});
    e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});

    // Tail latency spreads too much between runs on a shared host to carry
    // a bound (NOTES.md), so it is printed, not part of the result.
    Metrics human;
    human.push_back({"latency_p90_ms", stats.p90_ms, "ms", items});
    // p99 needs at least ten samples beyond it.
    if (items >= 1000)
      human.push_back({"latency_p99_ms", percentile(loop.latencies_ms, 0.99),
                       "ms", items});
    human.push_back(
        {"failed_frac",
         loop.attempted > 0 ? static_cast<double>(loop.failed) /
                                  static_cast<double>(loop.attempted)
                            : 0.0,
         "frac", loop.attempted});
    for (const Metric& m : workload->extra_end_to_end()) human.push_back(m);
    std::printf("%lld %ss in %.3f s, %lld windows of %lld\n",
                static_cast<long long>(items), workload->item_name(),
                loop.elapsed_s, static_cast<long long>(stats.windows),
                static_cast<long long>(stats.window_items));
    print_metrics("end-to-end (host time unless noted)", e2e);
    print_metrics("also (not in every workload's result)", human);
    const bool correct = loop.failed == 0 && loop.attempted > 0;
    print_result(correct, loop.attempted, loop.failed, e2e);
    return correct ? 0 : 1;
  }

  // Untraced and traced slices alternate; trace_overhead_frac compares the
  // median item rate of the traced slices with that of the untraced ones.
  SpanRecorder spans;
  std::vector<double> plain_rates, traced_rates;
  i64 attempted = 0;
  i64 failed = 0;
  for (int slice = 0; slice < kTraceSlices; ++slice) {
    const bool traced = slice % 2 == 1;
    const LoopResult loop = workload->run(config.seconds / kTraceSlices,
                                          traced ? &spans : nullptr);
    attempted += loop.attempted;
    failed += loop.failed;
    (traced ? traced_rates : plain_rates)
        .push_back(static_cast<double>(loop.attempted) / loop.elapsed_s);
  }
  LayerReport layers = workload->layers(spans);
  const double plain_rate = median(plain_rates);
  layers.metrics.push_back(
      {"trace_overhead_frac",
       plain_rate > 0.0 ? 1.0 - median(traced_rates) / plain_rate : 0.0,
       "frac", static_cast<i64>(traced_rates.size())});
  if (!config.trace_file.empty()) {
    if (!spans.write_chrome_trace(config.trace_file)) {
      std::cerr << "perfbench: cannot write " << config.trace_file << "\n";
      return 1;
    }
    std::printf("trace: %s\n", config.trace_file.c_str());
  }
  print_metrics("per-layer (host time unless noted)", layers.metrics);
  std::printf("replay mismatches: %lld\n",
              static_cast<long long>(layers.mismatches));
  const bool correct = failed == 0 && layers.mismatches == 0 && attempted > 0;
  print_result(correct, attempted, failed, layers.metrics);
  return correct ? 0 : 1;
}
