#include "core/resilient.hpp"

#include <utility>

namespace ae::core {

std::string to_string(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

void validate_resilient_options(const ResilientOptions& options) {
  validate_plan(options.plan);
  validate_policy(options.transport);
  AE_EXPECTS(options.max_call_retries >= 0,
             "whole-call retries must be >= 0");
  AE_EXPECTS(options.backoff_base_cycles > 0,
             "backoff base must be positive");
  AE_EXPECTS(options.backoff_factor >= 1.0, "backoff factor must be >= 1");
  AE_EXPECTS(options.breaker_threshold > 0,
             "breaker threshold must be positive");
  AE_EXPECTS(options.breaker_cooldown_calls > 0,
             "breaker cooldown must be positive");
}

ResilientSession::ResilientSession(EngineConfig config,
                                   ResilientOptions options)
    : options_(std::move(options)),
      injector_(options_.plan, options_.transport),
      session_(config, options_.session),
      software_(alib::SoftwareCostModel{}, options_.software) {
  validate_resilient_options(options_);
  session_.set_fault(&injector_);
}

std::string ResilientSession::name() const {
  return "resilient/" + session_.name();
}

void ResilientSession::restore_breaker(const BreakerSnapshot& snapshot) {
  breaker_ = snapshot.state;
  consecutive_failed_calls_ = snapshot.consecutive_failed_calls;
  cooldown_used_ = snapshot.cooldown_used;
}

void ResilientSession::replace_board(const FaultPlan& plan) {
  validate_plan(plan);
  options_.plan = plan;
  injector_.set_plan(plan);
  // set_fault re-evaluates the analytic-vs-simulated path choice for the
  // new plan and invalidates residency either way.
  session_.set_fault(&injector_);
  breaker_ = BreakerState::Closed;
  consecutive_failed_calls_ = 0;
  cooldown_used_ = 0;
}

void ResilientSession::set_trace(EngineTrace* trace) {
  trace_ = trace;
  session_.set_trace(trace);
}

u64 ResilientSession::backoff_cycles(int retry) const {
  double pause = static_cast<double>(options_.backoff_base_cycles);
  for (int i = 1; i < retry; ++i) pause *= options_.backoff_factor;
  return static_cast<u64>(pause);
}

void ResilientSession::open_breaker() {
  breaker_ = BreakerState::Open;
  ++stats_.breaker_opens;
  cooldown_used_ = 0;
  // Nothing on the board is trusted until a probe proves otherwise.
  session_.invalidate();
  if (trace_ != nullptr)
    trace_->record(stats_.cycles, TraceEvent::FallbackEngaged,
                   consecutive_failed_calls_);
}

void ResilientSession::sync_counters() {
  stats_.faults = injector_.counters();
  stats_.detections = injector_.detections();
}

void ResilientSession::finish_call(alib::CallResult& result, u64 burned) {
  // The caller sees the true latency of getting this answer: the winning
  // attempt plus everything burned and waited along the way.
  result.stats.cycles += burned;
  result.stats.model_seconds = static_cast<double>(result.stats.cycles) *
                               config().seconds_per_cycle();
  stats_.cycles += result.stats.cycles;
  sync_counters();
}

alib::CallResult ResilientSession::run_software(const alib::Call& call,
                                               const img::Image& a,
                                               const img::Image* b,
                                               u64 burned) {
  ++stats_.fallback_calls;
  alib::CallResult result = software_.execute(call, a, b);
  // Price the software path in engine-clock cycles so every latency in
  // the stats shares one unit.
  result.stats.cycles = static_cast<u64>(result.stats.model_seconds /
                                         config().seconds_per_cycle());
  finish_call(result, burned);
  return result;
}

alib::CallResult ResilientSession::execute(const alib::Call& call,
                                           const img::Image& a,
                                           const img::Image* b) {
  return execute(call, a, b, FrameKeys{});
}

alib::CallResult ResilientSession::execute(const alib::Call& call,
                                           const img::Image& a,
                                           const img::Image* b,
                                           const FrameKeys& keys) {
  const sync::SingleOwnerChecker::Scope single_owner(owner_);
  // Guard before any accounting: a statically rejected call must not move
  // the breaker or retry counters, and must be rejected even while the
  // breaker serves from software.
  if (options_.session.validate_before_execute)
    static_verify_call(session_.config(), call, a, b, keys);
  ++stats_.calls;
  if (breaker_ == BreakerState::Open) {
    if (cooldown_used_ < options_.breaker_cooldown_calls) {
      ++cooldown_used_;
      return run_software(call, a, b, 0);
    }
    // Cooldown over: probe the hardware with this call.
    breaker_ = BreakerState::HalfOpen;
    session_.invalidate();
  }

  u64 burned = 0;
  for (int attempt = 0; attempt <= options_.max_call_retries; ++attempt) {
    if (attempt > 0) {
      const u64 pause = backoff_cycles(attempt);
      burned += pause;
      stats_.backoff_cycles += pause;
      ++stats_.call_retries;
    }
    ++stats_.engine_attempts;
    try {
      alib::CallResult result = session_.execute(call, a, b, keys);
      ++stats_.engine_calls;
      consecutive_failed_calls_ = 0;
      if (breaker_ == BreakerState::HalfOpen) {
        breaker_ = BreakerState::Closed;  // the hardware is back
        cooldown_used_ = 0;
      }
      finish_call(result, burned);
      return result;
    } catch (const EngineHang& hang) {
      ++stats_.watchdog_trips;
      burned += hang.cycles_spent;
      stats_.engine_wasted_cycles += hang.cycles_spent;
      // A hung board is in an unknown state; forget what it held.
      session_.invalidate();
    } catch (const TransportFailure& failure) {
      ++stats_.transport_failures;
      burned += failure.cycles_spent;
      stats_.engine_wasted_cycles += failure.cycles_spent;
    }
  }

  // Whole-call retries exhausted: this call failed on the engine.
  ++consecutive_failed_calls_;
  if (breaker_ == BreakerState::HalfOpen ||
      consecutive_failed_calls_ >= options_.breaker_threshold) {
    open_breaker();
  }
  return run_software(call, a, b, burned);
}

}  // namespace ae::core
