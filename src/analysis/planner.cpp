#include "analysis/planner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "analysis/diagnostic.hpp"
#include "core/residency.hpp"
#include "core/scanspace.hpp"
#include "core/timing_model.hpp"

namespace ae::analysis {
namespace {

u64 widen_down(u64 value, double margin) {
  return static_cast<u64>(
      std::floor(static_cast<double>(value) * (1.0 - margin)));
}

u64 widen_up(u64 value, double margin) {
  return static_cast<u64>(
      std::ceil(static_cast<double>(value) * (1.0 + margin)));
}

CostBound widen(u64 lower, u64 upper, double margin) {
  return CostBound{widen_down(lower, margin), widen_up(upper, margin)};
}

i32 line_peak(i32 line_count, i32 capacity_lines) {
  return std::min(line_count, capacity_lines);
}

std::string bound_json(const CostBound& b) {
  std::ostringstream os;
  os << "{\"lower\":" << b.lower << ",\"upper\":" << b.upper << '}';
  return os.str();
}

std::string envelope_json(const CostEnvelope& e) {
  std::ostringstream os;
  os << "\"cycles\":{\"lower\":" << e.cycles.lower
     << ",\"upper\":" << e.cycles.upper
     << ",\"estimate\":" << e.cycles_estimate << '}'
     << ",\"dma_words\":{\"in\":" << e.dma_words_in
     << ",\"out\":" << e.dma_words_out << '}'
     << ",\"zbt_reads\":" << bound_json(e.zbt_reads)
     << ",\"zbt_writes\":" << bound_json(e.zbt_writes)
     << ",\"iim_peak_lines\":" << e.iim_peak_lines
     << ",\"oim_peak_lines\":" << e.oim_peak_lines;
  return os.str();
}

}  // namespace

std::string to_string(TransferKind k) {
  switch (k) {
    case TransferKind::Transferred:
      return "transferred";
    case TransferKind::Reused:
      return "reused";
    case TransferKind::Relocated:
      return "relocated";
  }
  return "?";
}

namespace {

// Segment envelope between traversal extremes [visits_lo, visits_hi]: the
// content-free call sites use [0, frame area] (no seed admits anything vs.
// a flood of the whole frame); the content-aware overload substitutes the
// reachability probe's [pushed_seeds, reachable_pixels].  Both price the
// same visits/tests formulas the cycle simulator charges (engine_sim.cpp
// segment tail): cycles' tail is visits*(nbhd+1) + tests, ZBT reads are
// visits*nbhd + tests, ZBT writes are visits — all monotone in visits and
// tests, so any sound visit interval yields a sound envelope.
CostEnvelope plan_segment_call(const alib::Call& call, Size frame,
                               const PlanOptions& options, CostEnvelope e,
                               u64 visits_lo, u64 visits_hi) {
  const core::EngineConfig& config = options.config;
  const double margin = options.margin;
  const u64 area = static_cast<u64>(frame.area());
  const u64 setup = config.call_setup_overhead_cycles;
  const u64 conn =
      call.segment.connectivity == alib::Connectivity::Four ? 4 : 8;
  const u64 nbhd = static_cast<u64>(call.nbhd.size());
  // The lower extreme performs its visits but may test no neighbor (every
  // neighbor can already be claimed at queue time); the upper extreme tests
  // the full connectivity of every visit.
  const core::AnalyticTiming t_lo = core::analytic_segment_timing(
      config, call, frame, static_cast<i64>(visits_lo),
      /*criterion_tests=*/0);
  const core::AnalyticTiming t_hi = core::analytic_segment_timing(
      config, call, frame, static_cast<i64>(visits_hi),
      static_cast<i64>(visits_hi * conn));
  e.cycles = widen(t_lo.total_cycles + setup, t_hi.total_cycles + setup,
                   margin);
  e.cycles_estimate = (t_lo.total_cycles + t_hi.total_cycles) / 2 + setup;
  e.dma_words_in = 2 * area;
  e.zbt_reads = CostBound{widen_down(visits_lo * nbhd, margin),
                          widen_up(visits_hi * (nbhd + conn), margin)};
  e.zbt_writes = CostBound{widen_down(visits_lo, margin),
                           widen_up(visits_hi, margin)};
  e.input_cycles_estimate =
      t_lo.input_busy_cycles + t_lo.input_overhead_cycles;
  return e;
}

}  // namespace

CostEnvelope plan_call(const alib::Call& call, Size frame,
                       const PlanOptions& options) {
  CostEnvelope e;
  if (frame.area() <= 0) return e;  // ill-formed; the verifier reports it

  const core::EngineConfig& config = options.config;
  const double margin = options.margin;
  const core::ScanSpace space(frame, call.scan);
  const u64 area = static_cast<u64>(frame.area());
  const u64 setup = config.call_setup_overhead_cycles;

  e.iim_peak_lines = line_peak(space.line_count(), config.iim_lines);
  e.oim_peak_lines = line_peak(space.line_count(), config.oim_lines);
  e.dma_words_out = 2 * area;

  if (call.mode == alib::Mode::Segment)
    return plan_segment_call(call, frame, options, e, /*visits_lo=*/0,
                             /*visits_hi=*/area);

  const int images = call.mode == alib::Mode::Inter ? 2 : 1;
  const core::AnalyticTiming t =
      core::analytic_streamed_timing(config, call, frame);
  const u64 total = t.total_cycles + setup;
  e.cycles = widen(total, total, margin);
  e.cycles_estimate = total;
  e.dma_words_in = 2 * area * static_cast<u64>(images);
  // One processing transaction per pixel each way (parallel bank accesses
  // count once, matching ZbtMemory's transaction accounting).
  e.zbt_reads = widen(area, area, margin);
  e.zbt_writes = widen(area, area, margin);
  e.input_cycles_estimate = t.input_busy_cycles + t.input_overhead_cycles;
  return e;
}

CostEnvelope plan_call(const alib::Call& call, Size frame,
                       const PlanOptions& options,
                       const alib::SegmentReachability& reach) {
  return plan_call(
      call, frame, options,
      SegmentVisitInterval{
          static_cast<u64>(std::max<i64>(0, reach.pushed_seeds)),
          static_cast<u64>(std::max<i64>(0, reach.reachable_pixels))});
}

CostEnvelope plan_call(const alib::Call& call, Size frame,
                       const PlanOptions& options,
                       SegmentVisitInterval visits) {
  if (call.mode != alib::Mode::Segment || frame.area() <= 0)
    return plan_call(call, frame, options);

  CostEnvelope e = plan_call(call, frame, options);
  const u64 area = static_cast<u64>(frame.area());
  // Clamp against the static extremes so a bracket computed for a different
  // frame (a proof or a reachability probe) can tighten but never unsoundly
  // exceed the content-free envelope.
  const u64 visits_hi = std::min(area, visits.hi);
  const u64 visits_lo = std::min(visits_hi, visits.lo);
  return plan_segment_call(call, frame, options, e, visits_lo, visits_hi);
}

ProgramPlan plan_program(const CallProgram& program,
                         const PlanOptions& options) {
  return plan_program(program, options, {});
}

ProgramPlan plan_program(
    const CallProgram& program, const PlanOptions& options,
    const std::vector<std::optional<SegmentVisitInterval>>& visit_hints) {
  ProgramPlan plan;
  core::ResidencyTable<i32, kNoFrame> residency;

  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    const ProgramCall& pc = program.calls()[i];
    CallPlan cp;
    cp.call_index = static_cast<i32>(i);

    const Size frame = program.valid_frame(pc.input_a)
                           ? program.frames()[static_cast<std::size_t>(
                                                  pc.input_a)]
                                 .size
                           : Size{};
    cp.envelope = i < visit_hints.size() && visit_hints[i].has_value()
                      ? plan_call(pc.call, frame, options, *visit_hints[i])
                      : plan_call(pc.call, frame, options);

    std::array<i32, 2> inputs{pc.input_a, pc.input_b};
    const std::size_t arity = pc.call.mode == alib::Mode::Inter ? 2 : 1;
    for (std::size_t k = 0; k < arity; ++k) {
      const i32 f = inputs[k];
      InputPlan ip;
      ip.frame = f;
      // Invalid references (kNoFrame / out-of-range ids the verifier flags)
      // never match a slot — and must not claim one.
      if (f >= 0) ip.kind = residency.acquire(f).kind;
      const Size in_frame =
          program.valid_frame(f)
              ? program.frames()[static_cast<std::size_t>(f)].size
              : Size{};
      ip.words =
          in_frame.area() > 0 ? 2 * static_cast<u64>(in_frame.area()) : 0;
      ++plan.transfers_total;
      if (ip.kind != TransferKind::Transferred) {
        ++plan.transfers_avoidable;
        cp.avoidable_words += ip.words;
      }
      cp.inputs.push_back(ip);
    }
    residency.finish_call(pc.output);
    for (const auto& slot : residency.slots())
      if (slot.key != kNoFrame) cp.resident_after.push_back(slot.key);
    if (residency.result() != kNoFrame &&
        std::find(cp.resident_after.begin(), cp.resident_after.end(),
                  residency.result()) == cp.resident_after.end())
      cp.resident_after.push_back(residency.result());
    std::sort(cp.resident_after.begin(), cp.resident_after.end());
    plan.avoidable_words += cp.avoidable_words;

    plan.total.cycles.lower += cp.envelope.cycles.lower;
    plan.total.cycles.upper += cp.envelope.cycles.upper;
    plan.total.cycles_estimate += cp.envelope.cycles_estimate;
    plan.total.dma_words_in += cp.envelope.dma_words_in;
    plan.total.dma_words_out += cp.envelope.dma_words_out;
    plan.total.zbt_reads.lower += cp.envelope.zbt_reads.lower;
    plan.total.zbt_reads.upper += cp.envelope.zbt_reads.upper;
    plan.total.zbt_writes.lower += cp.envelope.zbt_writes.lower;
    plan.total.zbt_writes.upper += cp.envelope.zbt_writes.upper;
    plan.total.iim_peak_lines =
        std::max(plan.total.iim_peak_lines, cp.envelope.iim_peak_lines);
    plan.total.oim_peak_lines =
        std::max(plan.total.oim_peak_lines, cp.envelope.oim_peak_lines);
    plan.total.input_cycles_estimate += cp.envelope.input_cycles_estimate;

    plan.calls.push_back(std::move(cp));
  }
  return plan;
}

std::string ProgramPlan::format(const CallProgram& program) const {
  std::ostringstream os;
  for (const CallPlan& cp : calls) {
    const ProgramCall& pc =
        program.calls()[static_cast<std::size_t>(cp.call_index)];
    os << "call " << cp.call_index << " (" << alib::to_string(pc.call.mode)
       << " -> " << program.frame_name(pc.output) << "): cycles=["
       << cp.envelope.cycles.lower << ", " << cp.envelope.cycles.upper
       << "] est=" << cp.envelope.cycles_estimate
       << " dma=" << cp.envelope.dma_words_in << '/'
       << cp.envelope.dma_words_out << "w inputs:";
    for (const InputPlan& ip : cp.inputs)
      os << ' ' << program.frame_name(ip.frame) << ':'
         << to_string(ip.kind) << '(' << ip.words << "w)";
    os << '\n';
  }
  os << "total: cycles=[" << total.cycles.lower << ", " << total.cycles.upper
     << "] est=" << total.cycles_estimate << " dma=" << total.dma_words_in
     << '/' << total.dma_words_out << "w transfers=" << transfers_total
     << " avoidable=" << transfers_avoidable << " (" << avoidable_words
     << "w)";
  return os.str();
}

std::string plan_json(const ProgramPlan& plan, const CallProgram& program) {
  std::ostringstream os;
  os << "{\"calls\":[";
  bool first = true;
  for (const CallPlan& cp : plan.calls) {
    const ProgramCall& pc =
        program.calls()[static_cast<std::size_t>(cp.call_index)];
    if (!first) os << ',';
    first = false;
    os << "{\"index\":" << cp.call_index
       << ",\"output\":" << json_quote(program.frame_name(pc.output))
       << ",\"mode\":" << json_quote(alib::to_string(pc.call.mode)) << ','
       << envelope_json(cp.envelope) << ",\"inputs\":[";
    bool first_in = true;
    for (const InputPlan& ip : cp.inputs) {
      if (!first_in) os << ',';
      first_in = false;
      os << "{\"frame\":" << json_quote(program.frame_name(ip.frame))
         << ",\"kind\":" << json_quote(to_string(ip.kind))
         << ",\"words\":" << ip.words << '}';
    }
    os << "],\"avoidable_words\":" << cp.avoidable_words << '}';
  }
  os << "],\"total\":{" << envelope_json(plan.total)
     << "},\"transfers\":{\"total\":" << plan.transfers_total
     << ",\"avoidable\":" << plan.transfers_avoidable
     << ",\"avoidable_words\":" << plan.avoidable_words << "}}";
  return os.str();
}

}  // namespace ae::analysis
