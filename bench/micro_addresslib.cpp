// Google-benchmark microbenchmarks of the AddressLib itself: real wall
// clock of the reproduction's code paths (kernels, drivers, segment
// expansion), as opposed to the modeled 2005 platforms.
//
// The kernel-vs-interpreter pairs (BM_Kern*) each run one CIF call through
// the functional interpreter and through the kernel backend at 1 and 4
// threads.  A custom main() pairs the rates up after the run and writes
// BENCH_kernels.json (pixels/s + speedups) next to the working directory —
// the machine-readable record of the host-path optimization.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "addresslib/addresslib.hpp"
#include "addresslib/kernels/kernel_backend.hpp"
#include "analysis/domain.hpp"
#include "analysis/program.hpp"
#include "common/parallel.hpp"
#include "image/synth.hpp"

#ifndef AE_KERNEL_ISA
#define AE_KERNEL_ISA "unknown"
#endif

namespace {

using namespace ae;

const img::Image& qcif_a() {
  static const img::Image a = img::make_test_frame(img::formats::kQcif, 1);
  return a;
}
const img::Image& qcif_b() {
  static const img::Image b = img::make_test_frame(img::formats::kQcif, 2);
  return b;
}
const img::Image& cif_a() {
  static const img::Image a = img::make_test_frame(img::formats::kCif, 3);
  return a;
}
const img::Image& cif_b() {
  static const img::Image b = img::make_test_frame(img::formats::kCif, 4);
  return b;
}

// CIF frame built for a bounded flood: a bright disk (radius 60, ~11% of
// the frame) on a dark background.  A seed inside the disk with a small
// luma threshold expands to exactly the disk — the sparse-mask case the
// frontier traversal and reachability pre-pass exist for.
const img::Image& cif_sparse() {
  static const img::Image s = [] {
    img::Image m(img::formats::kCif);
    const i32 cx = 176;
    const i32 cy = 144;
    for (i32 y = 0; y < m.height(); ++y) {
      for (i32 x = 0; x < m.width(); ++x) {
        img::Pixel& p = m.ref(x, y);
        const i64 dx = x - cx;
        const i64 dy = y - cy;
        const bool in_disk = dx * dx + dy * dy <= 60 * 60;
        p.y = in_disk ? 200 : 16;
        p.u = 128;
        p.v = 128;
      }
    }
    return m;
  }();
  return s;
}

void BM_InterAbsDiff(benchmark::State& state) {
  alib::SoftwareBackend be;
  const alib::Call call = alib::Call::make_inter(alib::PixelOp::AbsDiff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.execute(call, qcif_a(), &qcif_b()));
  }
  state.SetItemsProcessed(state.iterations() * qcif_a().pixel_count());
}
BENCHMARK(BM_InterAbsDiff);

void BM_IntraConvolve(benchmark::State& state) {
  alib::SoftwareBackend be;
  alib::OpParams p;
  p.coeffs.assign(9, 1);
  p.shift = 3;
  const alib::Call call =
      alib::Call::make_intra(alib::PixelOp::Convolve,
                             alib::Neighborhood::con8(), ChannelMask::y(),
                             ChannelMask::y(), p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.execute(call, qcif_a()));
  }
  state.SetItemsProcessed(state.iterations() * qcif_a().pixel_count());
}
BENCHMARK(BM_IntraConvolve);

void BM_IntraMedian(benchmark::State& state) {
  alib::SoftwareBackend be;
  const alib::Call call = alib::Call::make_intra(
      alib::PixelOp::Median, alib::Neighborhood::con8());
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.execute(call, qcif_a()));
  }
  state.SetItemsProcessed(state.iterations() * qcif_a().pixel_count());
}
BENCHMARK(BM_IntraMedian);

void BM_IntraGradientPack(benchmark::State& state) {
  alib::SoftwareBackend be;
  const alib::Call call = alib::Call::make_intra(
      alib::PixelOp::GradientPack, alib::Neighborhood::con8(),
      ChannelMask::y(),
      ChannelMask::alfa().with(Channel::Aux));
  for (auto _ : state) {
    benchmark::DoNotOptimize(be.execute(call, qcif_a()));
  }
  state.SetItemsProcessed(state.iterations() * qcif_a().pixel_count());
}
BENCHMARK(BM_IntraGradientPack);

void BM_SegmentExpansion(benchmark::State& state) {
  alib::SegmentSpec spec;
  spec.seeds = {{88, 72}};
  spec.luma_threshold = static_cast<i32>(state.range(0));
  for (auto _ : state) {
    alib::SegmentTable<alib::SegmentInfo> table;
    i64 visited = 0;
    alib::expand_segments(qcif_a(), spec, table,
                          [&](const alib::SegmentVisit&) { ++visited; });
    benchmark::DoNotOptimize(visited);
  }
}
BENCHMARK(BM_SegmentExpansion)->Arg(8)->Arg(32)->Arg(255);

void BM_ScanIntraDriver(benchmark::State& state) {
  // The raw templated driver without backend accounting.
  img::Image out(qcif_a().size());
  const alib::Neighborhood n = alib::Neighborhood::con8();
  alib::SideAccum side;
  for (auto _ : state) {
    alib::scan_intra(qcif_a(), out, alib::ScanOrder::RowMajor,
                     alib::BorderPolicy::Replicate, img::Pixel{},
                     [&](const alib::ImageWindow& w) {
                       return alib::apply_intra(
                           alib::PixelOp::Dilate, alib::OpParams{}, n, w,
                           ChannelMask::y(), ChannelMask::y(), side);
                     });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * qcif_a().pixel_count());
}
BENCHMARK(BM_ScanIntraDriver);

// ---- kernel backend vs functional interpreter ------------------------------
//
// One CIF call per workload; "_Interp" runs execute_functional, "_Kernel_T1"
// and "_Kernel_T4" run the kernel backend on pools of 1 and 4 lanes.  The
// flood workloads come in a dense/sparse pair: dense (luma 255) floods the
// whole frame — the traversal-bound worst case — while sparse expands a
// bright disk out of a dark frame, the case the reachability pre-pass
// bounds.  Two of the pairs are gated (enforce_gates below): this binary
// exits 1 when the sorting-network median or the sparse frontier flood
// loses its claimed speedup.

struct KernWorkload {
  std::string name;
  alib::Call call;
  bool needs_b = false;
  /// Input frame; cif_a() when null.
  const img::Image& (*frame)() = nullptr;
  /// speedup_t1 measured before the PR 8 fast paths (PR 3 fused kernels),
  /// recorded in the JSON as the honest before/after pair.
  double speedup_t1_before = 0.0;
};

std::vector<KernWorkload>& kern_workloads() {
  static std::vector<KernWorkload> w = [] {
    using alib::Call;
    using alib::Neighborhood;
    using alib::OpParams;
    using alib::PixelOp;
    std::vector<KernWorkload> v;
    v.push_back({"InterAbsDiff", Call::make_inter(PixelOp::AbsDiff), true,
                 nullptr, 6.20});
    v.push_back({"InterSad",
                 Call::make_inter(PixelOp::Sad, ChannelMask::yuv(),
                                  ChannelMask::yuv()),
                 true, nullptr, 1.49});
    {
      // The GME normal-equation accumulator at the estimator's first-pass
      // robust cutoff.  It had no lowering and fell back to the
      // interpreter: the "before" speedup is fallback parity, 1.00.
      OpParams p;
      p.threshold = 64;
      v.push_back({"InterGmeAccum",
                   Call::make_inter(PixelOp::GmeAccum, ChannelMask::y(),
                                    ChannelMask::y(), p),
                   true, nullptr, 1.00});
    }
    {
      OpParams p;
      p.coeffs.assign(9, 1);
      p.shift = 3;
      v.push_back({"IntraConvolve",
                   Call::make_intra(PixelOp::Convolve, Neighborhood::con8(),
                                    ChannelMask::y(), ChannelMask::y(), p),
                   false, nullptr, 4.92});
    }
    v.push_back({"IntraErode",
                 Call::make_intra(PixelOp::Erode, Neighborhood::con8()),
                 false, nullptr, 10.00});
    v.push_back({"IntraMedian",
                 Call::make_intra(PixelOp::Median, Neighborhood::con8()),
                 false, nullptr, 1.32});
    {
      alib::SegmentSpec spec;
      spec.seeds = {{176, 144}};
      spec.luma_threshold = 255;  // floods the frame: worst-case traversal
      v.push_back({"SegmentFloodDense",
                   Call::make_segment(PixelOp::Copy, Neighborhood::con0(),
                                      spec, ChannelMask::y(),
                                      ChannelMask::y().with(Channel::Alfa)),
                   false, nullptr, 1.05});
    }
    {
      // Sparse flood: the seed expands over the bright disk of cif_sparse()
      // (~11% of the frame) and the op is a 5x5 median — the denoise-inside-
      // a-segment shape this backend targets, where per-visit op cost
      // rivals the traversal.  The pair measures probe + traversal + batched
      // op application (deferred runs hit the 8-wide sorting network; the
      // interpreter pays a window gather + nth_element per visit).  Before
      // this path existed the backend fell back to the interpreter: the
      // "before" speedup is fallback parity, 1.00.
      alib::SegmentSpec spec;
      spec.seeds = {{176, 144}};
      spec.luma_threshold = 10;
      v.push_back({"SegmentFloodSparse",
                   Call::make_segment(PixelOp::Median, Neighborhood::rect(5, 5),
                                      spec, ChannelMask::y(),
                                      ChannelMask::y().with(Channel::Alfa)),
                   false, &cif_sparse, 1.00});
    }
    return v;
  }();
  return w;
}

const img::Image& workload_frame(const KernWorkload& w) {
  return w.frame != nullptr ? w.frame() : cif_a();
}

void run_kern_interp(benchmark::State& state, const KernWorkload& w) {
  const img::Image& a = workload_frame(w);
  const img::Image* b = w.needs_b ? &cif_b() : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alib::execute_functional(w.call, a, b));
  }
  state.SetItemsProcessed(state.iterations() * a.pixel_count());
}

void run_kern_kernel(benchmark::State& state, const KernWorkload& w,
                     int threads) {
  par::ThreadPool pool(threads);
  alib::KernelBackend backend({&pool, 16});
  const img::Image& a = workload_frame(w);
  const img::Image* b = w.needs_b ? &cif_b() : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.execute(w.call, a, b));
  }
  state.SetItemsProcessed(state.iterations() * a.pixel_count());
}

void register_kern_benchmarks() {
  // UseRealTime: with a worker pool the main thread's CPU time misses the
  // workers' share; wall clock is the honest rate for every pair member.
  for (const KernWorkload& w : kern_workloads()) {
    benchmark::RegisterBenchmark(
        ("BM_Kern_" + w.name + "_Interp").c_str(),
        [&w](benchmark::State& s) { run_kern_interp(s, w); })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_Kern_" + w.name + "_Kernel_T1").c_str(),
        [&w](benchmark::State& s) { run_kern_kernel(s, w, 1); })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_Kern_" + w.name + "_Kernel_T4").c_str(),
        [&w](benchmark::State& s) { run_kern_kernel(s, w, 4); })
        ->UseRealTime();
  }
}

// ---- clamp elision: proven clamp-free kernels vs their clamped twins -------
//
// Each pair runs the SAME call through the kernel backend at one thread,
// once untouched (every store goes through img::clamp_channel) and once
// with Call::clamp_free stamped by the aedom value-interval analysis — the
// hint is derived, not asserted: the call is wrapped in a one-call program,
// analyze_domain proves the raw result range, and apply_domain_hints writes
// the mask back.  The gate below (>= 1.15x on at least one pair) is the
// measured claim that the proof pays for itself.

struct ClampWorkload {
  std::string name;
  alib::Call clamped;  ///< baseline: Call::clamp_free left empty
  alib::Call hinted;   ///< same call, clamp_free proven by analyze_domain
  bool needs_b = false;
};

/// Runs `call` through a one-call program so analyze_domain can prove its
/// raw result ranges, and returns the call with Call::clamp_free stamped.
alib::Call domain_hinted(const alib::Call& call, bool needs_b) {
  analysis::CallProgram p;
  const i32 a = p.add_input(cif_a().size());
  const i32 b = needs_b ? p.add_input(cif_a().size()) : analysis::kNoFrame;
  p.mark_output(p.add_call(call, a, b));
  analysis::apply_domain_hints(p, analysis::analyze_domain(p));
  return p.calls()[0].call;
}

std::vector<ClampWorkload>& clamp_workloads() {
  static std::vector<ClampWorkload> w = [] {
    using alib::Call;
    using alib::Neighborhood;
    using alib::OpParams;
    using alib::PixelOp;
    std::vector<ClampWorkload> v;
    {
      // Multiplicative blend, (a * b) >> 8 on all three video channels:
      // the raw product of two 8-bit values shifted by 8 is provably
      // <= 254, so the domain proves Y/U/V clamp-free and the backend's
      // 8-lane u16 multiply path replaces the widened i64 scalar loop.
      OpParams p;
      p.shift = 8;
      const Call c = Call::make_inter(PixelOp::Mult, ChannelMask::yuv(),
                                      ChannelMask::yuv(), p);
      v.push_back({"InterMultBlend", c, domain_hinted(c, true), true});
    }
    {
      // Pointwise halving scale, (v * 1) >> 1: raw result provably
      // <= 127, so the per-pixel clamp is elided on the scalar path.
      OpParams p;
      p.scale_num = 1;
      p.shift = 1;
      const Call c =
          Call::make_intra(PixelOp::Scale, Neighborhood::con0(),
                           ChannelMask::yuv(), ChannelMask::yuv(), p);
      v.push_back({"IntraScaleHalf", c, domain_hinted(c, false), false});
    }
    return v;
  }();
  return w;
}

void run_clamp_kernel(benchmark::State& state, const alib::Call& call,
                      bool needs_b) {
  par::ThreadPool pool(1);
  alib::KernelBackend backend({&pool, 16});
  const img::Image& a = cif_a();
  const img::Image* b = needs_b ? &cif_b() : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.execute(call, a, b));
  }
  state.SetItemsProcessed(state.iterations() * a.pixel_count());
}

void register_clamp_benchmarks() {
  for (const ClampWorkload& w : clamp_workloads()) {
    benchmark::RegisterBenchmark(
        ("BM_Clamp_" + w.name + "_Clamped_T1").c_str(),
        [&w](benchmark::State& s) { run_clamp_kernel(s, w.clamped,
                                                     w.needs_b); })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_Clamp_" + w.name + "_NoClamp_T1").c_str(),
        [&w](benchmark::State& s) { run_clamp_kernel(s, w.hinted,
                                                     w.needs_b); })
        ->UseRealTime();
  }
}

// Captures every run's items_per_second on top of the normal console output.
class RateCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end())
        rates_[run.benchmark_name()] = static_cast<double>(it->second);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& rates() const { return rates_; }

 private:
  std::map<std::string, double> rates_;
};

/// Looks a benchmark's rate up, tolerating the "/real_time" name suffix
/// UseRealTime appends.  0 when the benchmark did not run.
double rate_of(const std::map<std::string, double>& rates,
               const std::string& name) {
  auto it = rates.find(name + "/real_time");
  if (it == rates.end()) it = rates.find(name);
  return it == rates.end() ? 0.0 : it->second;
}

/// Pairs BM_Kern_<name>_{Interp,Kernel_T1,Kernel_T4} rates into
/// BENCH_kernels.json.  Skips silently when the kernel benchmarks were
/// filtered out of the run.
void write_kernels_json(const std::map<std::string, double>& rates) {
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", AE_KERNEL_ISA);
  std::fprintf(f, "  \"frame\": \"CIF 352x288\",\n");
  std::fprintf(f, "  \"workloads\": [");
  bool first = true;
  for (const KernWorkload& w : kern_workloads()) {
    const double interp = rate_of(rates, "BM_Kern_" + w.name + "_Interp");
    const double t1 = rate_of(rates, "BM_Kern_" + w.name + "_Kernel_T1");
    const double t4 = rate_of(rates, "BM_Kern_" + w.name + "_Kernel_T4");
    if (interp <= 0.0 || t1 <= 0.0 || t4 <= 0.0) continue;
    std::fprintf(f, "%s\n    {\"name\": \"%s\",", first ? "" : ",",
                 w.name.c_str());
    first = false;
    std::fprintf(f, " \"interp_pixels_per_s\": %.0f,", interp);
    std::fprintf(f, " \"kernel_t1_pixels_per_s\": %.0f,", t1);
    std::fprintf(f, " \"kernel_t4_pixels_per_s\": %.0f,", t4);
    std::fprintf(f, " \"speedup_t1_before\": %.2f,", w.speedup_t1_before);
    std::fprintf(f, " \"speedup_t1\": %.2f,", t1 / interp);
    std::fprintf(f, " \"speedup_t4\": %.2f,", t4 / interp);
    std::fprintf(f, " \"scaling_t4_over_t1\": %.2f}", t4 / t1);
  }
  std::fprintf(f, "\n  ],\n");
  // Clamp-elision pairs: the clamped baseline is the "before", the
  // domain-hinted clamp-free twin the "after".
  std::fprintf(f, "  \"clamp_elision\": [");
  first = true;
  for (const ClampWorkload& w : clamp_workloads()) {
    const double clamped =
        rate_of(rates, "BM_Clamp_" + w.name + "_Clamped_T1");
    const double noclamp =
        rate_of(rates, "BM_Clamp_" + w.name + "_NoClamp_T1");
    if (clamped <= 0.0 || noclamp <= 0.0) continue;
    std::fprintf(f, "%s\n    {\"name\": \"%s\",", first ? "" : ",",
                 w.name.c_str());
    first = false;
    std::fprintf(f, " \"clamp_free\": \"%s\",",
                 to_string(w.hinted.clamp_free).c_str());
    std::fprintf(f, " \"clamped_t1_pixels_per_s\": %.0f,", clamped);
    std::fprintf(f, " \"noclamp_t1_pixels_per_s\": %.0f,", noclamp);
    std::fprintf(f, " \"speedup_t1\": %.2f}", noclamp / clamped);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_kernels.json\n");
}

/// Self-gate: the two PR 8 fast paths must keep their claimed single-thread
/// speedups.  A pair whose benchmarks were filtered out of the run is
/// skipped (partial runs stay usable for profiling); a pair that ran and
/// regressed fails the binary.
bool enforce_gates(const std::map<std::string, double>& rates) {
  struct Gate {
    const char* workload;
    double min_speedup_t1;
  };
  constexpr Gate kGates[] = {
      {"IntraMedian", 4.0},        // sorting-network median vs nth_element
      {"SegmentFloodSparse", 2.0}, // frontier flood vs full-frame reference
  };
  bool ok = true;
  for (const Gate& g : kGates) {
    const std::string base = std::string("BM_Kern_") + g.workload;
    const double interp = rate_of(rates, base + "_Interp");
    const double t1 = rate_of(rates, base + "_Kernel_T1");
    if (interp <= 0.0 || t1 <= 0.0) continue;
    const double speedup = t1 / interp;
    const bool pass = speedup >= g.min_speedup_t1;
    std::printf("gate %-18s t1 speedup %5.2fx (need >= %.2fx): %s\n",
                g.workload, speedup, g.min_speedup_t1,
                pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  // Clamp-elision gate: at least one proven clamp-free pointwise kernel
  // must beat its clamped twin by >= 1.15x single-threaded.  Pairs that
  // were filtered out of the run are skipped, as above.
  double best = 0.0;
  bool any_pair = false;
  for (const ClampWorkload& w : clamp_workloads()) {
    const double clamped =
        rate_of(rates, "BM_Clamp_" + w.name + "_Clamped_T1");
    const double noclamp =
        rate_of(rates, "BM_Clamp_" + w.name + "_NoClamp_T1");
    if (clamped <= 0.0 || noclamp <= 0.0) continue;
    any_pair = true;
    best = std::max(best, noclamp / clamped);
  }
  if (any_pair) {
    const bool pass = best >= 1.15;
    std::printf("gate %-18s best noclamp/clamped %5.2fx "
                "(need >= 1.15x on one pair): %s\n",
                "ClampElision", best, pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  register_kern_benchmarks();
  register_clamp_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RateCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_kernels_json(reporter.rates());
  return enforce_gates(reporter.rates()) ? 0 : 1;
}
