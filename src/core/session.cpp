#include "core/session.hpp"

#include <algorithm>
#include <array>

#include "addresslib/kernels/frame_hash.hpp"
#include "addresslib/kernels/kernel_backend.hpp"
#include "analysis/verifier.hpp"
#include "core/engine_sim.hpp"
#include "core/fault.hpp"

namespace ae::core {

FrameKeys FrameKeys::resolved(const img::Image& a_frame,
                              const img::Image* b_frame) const {
  FrameKeys keys = *this;
  if (keys.a == 0) keys.a = frame_content_hash(a_frame);
  if (keys.b == 0 && b_frame != nullptr)
    keys.b = frame_content_hash(*b_frame);
  return keys;
}

void static_verify_call(const EngineConfig& config, const alib::Call& call,
                        const img::Image& a, const img::Image* b,
                        const FrameKeys& keys) {
  Size b_size{};
  const Size* b_ptr = nullptr;
  if (b != nullptr) {
    b_size = b->size();
    b_ptr = &b_size;
  }
  // Aliasing by identity or by content: one on-board copy can satisfy only
  // one bank-pair claim (the PR 2 duplicate-slot class, AEV210).
  bool alias = false;
  if (call.mode == alib::Mode::Inter && b != nullptr) {
    alias = b == &a;
    if (!alias && b->size() == a.size()) {
      const FrameKeys k = keys.resolved(a, b);
      alias = k.a == k.b;
    }
  }
  analysis::VerifyOptions options;
  options.config = config;
  analysis::enforce(
      analysis::verify_call(call, a.size(), b_ptr, alias, options));
}

bool is_side_only_op(alib::PixelOp op) {
  switch (op) {
    case alib::PixelOp::Sad:
    case alib::PixelOp::Histogram:
    case alib::PixelOp::GmeAccum:
    case alib::PixelOp::GmeAccumAffine:
      return true;
    default:
      return false;
  }
}

EngineSession::EngineSession(EngineConfig config, SessionOptions options)
    : config_(config), options_(options) {
  validate_config(config_);
}

std::string EngineSession::name() const {
  return "engine/" + std::to_string(config_.clock_mhz) + "MHz/session";
}

void EngineSession::invalidate() {
  residency_.restore({});
  pinned_.clear();
}

void EngineSession::pin_frames(const std::vector<u64>& hashes) {
  pinned_.clear();
  for (const u64 hash : hashes)
    if (hash != 0) pinned_.push_back(hash);
}

bool EngineSession::is_pinned(u64 hash) const {
  return hash != 0 &&
         std::find(pinned_.begin(), pinned_.end(), hash) != pinned_.end();
}

void EngineSession::set_fault(FaultInjector* fault) {
  fault_ = fault;
  // Board content is untrusted across a mode change either way.
  invalidate();
}

alib::CallResult EngineSession::execute_simulated(const alib::Call& call,
                                                  const img::Image& a,
                                                  const img::Image* b) {
  // The adversary is in the loop: run the full cycle simulator so faults
  // hit a real datapath and the CRC/watchdog machinery earns its cycles.
  // Throws TransportFailure on unrecoverable attempts; stats below count
  // completed calls only (the resilient layer accounts failed attempts).
  EngineRunStats run;
  alib::CallResult result =
      simulate_call(config_, call, a, b, &run, trace_, fault_);
  ++stats_.calls;
  stats_.inputs_transferred += call.mode == alib::Mode::Inter ? 2 : 1;
  ++stats_.outputs_read_back;
  stats_.strip_retries += run.strip_retries;
  stats_.readback_retries += run.readback_retries;
  stats_.cycles += result.stats.cycles;
  // Simulated phase split: the cycle the last input word landed divides the
  // call (setup overhead charged to the input side, where the driver spends
  // it).
  last_phases_.input_cycles =
      run.input_done_cycle + config_.call_setup_overhead_cycles;
  last_phases_.total_cycles = result.stats.cycles;
  last_phases_.post_input_cycles =
      last_phases_.total_cycles -
      std::min(last_phases_.total_cycles, last_phases_.input_cycles);
  return result;
}

u64 frame_content_hash(const img::Image& image) {
  return alib::kern::frame_hash(image);
}

alib::CallResult EngineSession::execute(const alib::Call& call,
                                        const img::Image& a,
                                        const img::Image* b) {
  return execute(call, a, b, FrameKeys{});
}

alib::CallResult EngineSession::execute(const alib::Call& call,
                                        const img::Image& a,
                                        const img::Image* b, FrameKeys keys) {
  last_output_key_ = 0;
  const bool simulated = fault_ != nullptr && fault_->enabled();
  if (!simulated) keys = keys.resolved(a, b);
  if (options_.validate_before_execute)
    static_verify_call(config_, call, a, b, keys);
  if (simulated) return execute_simulated(call, a, b);
  alib::SegmentRunInfo seg;
  alib::CallResult result = alib::execute(call, a, b, seg);
  ++stats_.calls;

  const int images = call.mode == alib::Mode::Inter ? 2 : 1;
  const AnalyticPrice price =
      analytic_call_stats(config_, call, a.size(), seg, result.stats);
  u64 cycles = price.run.cycles;
  const auto pixels = static_cast<u64>(a.pixel_count());

  // Input transfers skipped for resident frames.  The table's claim set
  // keeps an inter call with identical inputs from counting one on-board
  // copy twice (the engine reads both bank pairs in parallel).
  const u64 per_frame_in = price.input_cycles / static_cast<u64>(images);
  u64 input_cycles = price.input_cycles;
  const std::array<u64, 2> wanted{keys.a, keys.b};
  const auto order = ResidencyTable<u64>::sparing(
      [this](u64 hash) { return is_pinned(hash); });
  for (int f = 0; f < images; ++f) {
    const TransferKind kind =
        residency_
            .acquire(wanted[static_cast<std::size_t>(f)], /*reusable=*/true,
                     order)
            .kind;
    if (kind == TransferKind::Transferred) {
      ++stats_.inputs_transferred;
      continue;
    }
    ++stats_.inputs_reused;
    cycles -= std::min(cycles, per_frame_in);
    input_cycles -= std::min(input_cycles, per_frame_in);
    if (kind == TransferKind::Relocated) {
      // Bank-to-bank relocation: two port cycles per pixel.
      ++stats_.board_copies;
      cycles += pixels * 2;
      input_cycles += pixels * 2;
    }
  }

  // Side-only calls keep their result on board.
  if (is_side_only_op(call.op)) {
    ++stats_.outputs_elided;
    cycles -= std::min(cycles, price.output_cycles);
  } else {
    ++stats_.outputs_read_back;
  }
  last_output_key_ = frame_content_hash(result.output);
  residency_.finish_call(last_output_key_);

  // Setup overhead is driver time spent before/while streaming strips, so
  // it belongs to the input phase of the pipelining view.
  last_phases_.input_cycles = std::min(
      cycles, input_cycles + config_.call_setup_overhead_cycles);
  last_phases_.total_cycles = cycles;
  last_phases_.post_input_cycles = cycles - last_phases_.input_cycles;

  stats_.cycles += cycles;
  result.stats.cycles = cycles;
  // Whatever time remains is (at most) bus time: savings only ever remove
  // transfers, never add non-bus work beyond the board copies.
  result.stats.pci_cycles = std::min(cycles, result.stats.pci_cycles);
  result.stats.model_seconds =
      static_cast<double>(cycles) * config_.seconds_per_cycle();
  return result;
}

}  // namespace ae::core
