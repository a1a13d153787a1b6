// ResilientSession — the self-healing driver layer.
//
// Wraps an `EngineSession` whose transport may be adversarial (fault.hpp)
// and guarantees the caller a bit-exact result anyway, at a cost the timing
// model keeps honest:
//
//   * the transport below the call boundary already retries strips (CRC)
//     and re-reads the result (whole-frame checksum); those cycles are in
//     the call's own count,
//   * a call that still fails — watchdog on a hung stream, integrity retry
//     budget exhausted — is retried whole, with exponential backoff priced
//     in engine cycles and every failed attempt's burned cycles carried
//     into the final latency,
//   * repeated failures open a circuit breaker: the session stops trusting
//     the board (residency invalidated) and serves calls from the bit-exact
//     `SoftwareBackend`, priced in engine-clock cycles via the software cost
//     model, until a cooldown of calls has passed and a half-open probe
//     succeeds on real hardware again.
//
// The breaker state machine: Closed -> (breaker_threshold consecutive
// failed calls) -> Open -> (breaker_cooldown_calls software calls) ->
// HalfOpen -> probe success -> Closed / probe failure -> Open.
#pragma once

#include "addresslib/call.hpp"
#include "addresslib/software_backend.hpp"
#include "common/sync.hpp"
#include "core/fault.hpp"
#include "core/session.hpp"
#include "core/trace.hpp"

namespace ae::core {

struct ResilientOptions {
  FaultPlan plan;              ///< the adversary (clean by default)
  TransportPolicy transport;   ///< below-call retry budgets and watchdog
  /// Whole-call re-runs after a TransportError / EngineHang.
  int max_call_retries = 3;
  /// First backoff pause; doubles (backoff_factor) per further retry.
  /// ~1 ms at the 66 MHz engine clock.
  u64 backoff_base_cycles = 66'000;
  double backoff_factor = 2.0;
  /// Consecutive failed calls (retries exhausted) that open the breaker.
  int breaker_threshold = 3;
  /// Calls served by software before a half-open hardware probe.
  int breaker_cooldown_calls = 8;
  SessionOptions session;      ///< passed through to the EngineSession
  /// Host-execution knobs of the software fallback (kernel backend on by
  /// default; results are bit-exact either way).
  alib::SoftwareOptions software;
};

/// Throws InvalidArgument on non-positive budgets/backoff.
void validate_resilient_options(const ResilientOptions& options);

enum class BreakerState : u8 { Closed, Open, HalfOpen };
std::string to_string(BreakerState s);

/// Serializable view of the driver's health state machine — everything a
/// shard snapshot must carry to resume the breaker/backoff window exactly
/// where it stopped (serve/snapshot.hpp).
struct BreakerSnapshot {
  BreakerState state = BreakerState::Closed;
  int consecutive_failed_calls = 0;
  int cooldown_used = 0;
};

struct ResilientStats {
  i64 calls = 0;              ///< calls answered (engine or software)
  i64 engine_calls = 0;       ///< answered by the engine
  i64 fallback_calls = 0;     ///< answered by the software backend
  i64 engine_attempts = 0;    ///< engine runs including whole-call retries
  i64 call_retries = 0;       ///< whole-call re-runs after a failure
  i64 watchdog_trips = 0;     ///< attempts that died at the watchdog
  i64 transport_failures = 0; ///< attempts that exhausted integrity retries
  i64 breaker_opens = 0;
  u64 backoff_cycles = 0;        ///< cycles spent waiting between retries
  u64 engine_wasted_cycles = 0;  ///< cycles burned by failed attempts
  u64 cycles = 0;  ///< total latency: useful + wasted + backoff + fallback
  FaultCounters faults;          ///< everything the injector did
  DetectionCounters detections;  ///< everywhere the transport noticed

  double seconds(const EngineConfig& config) const {
    return static_cast<double>(cycles) * config.seconds_per_cycle();
  }
};

class ResilientSession : public alib::Backend {
 public:
  explicit ResilientSession(EngineConfig config = {},
                            ResilientOptions options = {});

  std::string name() const override;
  /// Always returns a bit-exact result; never throws on transport faults.
  /// execute(call, a, b, {}): the inputs are hashed below, where needed.
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override;
  /// As execute(), carrying input content keys a layer above already
  /// computed down to the EngineSession and the static-verify guard.
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b, const FrameKeys& keys);

  const ResilientStats& stats() const { return stats_; }
  const ResilientOptions& options() const { return options_; }
  const EngineConfig& config() const { return session_.config(); }
  BreakerState breaker() const { return breaker_; }
  bool circuit_open() const { return breaker_ != BreakerState::Closed; }
  /// True while the breaker is closed and no call has failed outright.
  bool healthy() const {
    return breaker_ == BreakerState::Closed && stats_.fallback_calls == 0;
  }

  /// The adversary, exposed so tests and sweeps can swap plans mid-session.
  FaultInjector& injector() { return injector_; }
  const FaultInjector& injector() const { return injector_; }
  const EngineSession& session() const { return session_; }

  /// Health state machine as a serializable value (shard checkpointing).
  BreakerSnapshot breaker_snapshot() const {
    return {breaker_, consecutive_failed_calls_, cooldown_used_};
  }
  /// Installs a previously exported health state.  Must not run
  /// concurrently with execute() — same single-owner contract.
  void restore_breaker(const BreakerSnapshot& snapshot);

  /// Models swapping the physical board: the transport adversary is
  /// replaced by `plan` (reseeded; counters keep accumulating), the breaker
  /// closes, the failure window clears and all residency is forgotten —
  /// nothing on a new board is resident yet.  Cumulative stats survive:
  /// they account the shard's service history, not one board's.
  void replace_board(const FaultPlan& plan);

  /// Residency of the wrapped session (forwarded; see EngineSession).
  const ResidencyTable<u64>& residency() const {
    return session_.residency();
  }
  void restore_residency(const ResidencySnapshot& snapshot) {
    session_.restore_residency(snapshot);
  }
  /// Advisory frame pins of the wrapped session (forwarded).
  void pin_frames(const std::vector<u64>& hashes) {
    session_.pin_frames(hashes);
  }

  /// Timeline sink for simulated calls and driver events; may be null.
  void set_trace(EngineTrace* trace);

 private:
  u64 backoff_cycles(int retry) const;
  void open_breaker();
  alib::CallResult run_software(const alib::Call& call, const img::Image& a,
                                const img::Image* b, u64 burned);
  void finish_call(alib::CallResult& result, u64 burned);
  void sync_counters();

  ResilientOptions options_;
  FaultInjector injector_;
  EngineSession session_;
  alib::SoftwareBackend software_;
  ResilientStats stats_;
  BreakerState breaker_ = BreakerState::Closed;
  int consecutive_failed_calls_ = 0;
  int cooldown_used_ = 0;
  EngineTrace* trace_ = nullptr;
  // Threading contract: like the EngineSession it wraps, a
  // ResilientSession is single-owner by design — no locks, exactly one
  // thread inside execute() at a time (the farm pins each instance to one
  // shard worker).  The checker turns a violation into an immediate
  // InvariantViolation instead of corrupted breaker/stats state.
  sync::SingleOwnerChecker owner_;
};

}  // namespace ae::core
