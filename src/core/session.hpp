// EngineSession — a driver-level what-if study on top of the engine.
//
// The 2005 prototype re-transferred every input frame on every AddressLib
// call and always read the result back ("the communication ... is
// interrupt oriented and happens through the PCI bus").  Call-heavy
// workloads pay for that: the GME loop sends the reference frame again on
// every iteration and reads back difference pictures whose only useful
// content is the side-port sums.
//
// EngineSession models a smarter driver on unchanged hardware:
//   * frame residency — the ZBT keeps the last frames; an input whose
//     content is already on board skips its transfer (an on-board
//     bank-to-bank copy at one pixel per two cycles when it sits in the
//     result banks).  The board state is a core::ResidencyTable keyed by
//     content hash, the same table aeplan and aealloc key by frame id, so for
//     frames of distinct content the session charges what they predict,
//   * side-only readback elision — calls whose value is entirely in the
//     side port (Sad, Histogram, GmeAccum, GmeAccumAffine) skip the result
//     readback.
// Pixels come from the host's one pixel dispatch, alib::execute (the kernel
// backend, bit-exact with the interpreter down to the segment traversal
// counts the timing model prices).  The price is the analytic
// EngineBackend's (core::analytic_call_stats) with the residency and
// readback credits applied on top.  Residency is keyed by frame content:
// each input is hashed at most once per call, and not at all when the layer
// above already carries its key (FrameKeys; serve::EngineFarm hashes at
// submission).  The `session_optimization` bench quantifies the effect on
// the Table 3 workload.
#pragma once

#include <vector>

#include "addresslib/call.hpp"
#include "core/analytic.hpp"
#include "core/config.hpp"
#include "core/residency.hpp"

namespace ae::core {

class EngineTrace;
class FaultInjector;

struct SessionOptions {
  /// Run the aeverify static rule set (analysis/verifier.hpp) over every
  /// call before touching the board; ill-formed calls throw
  /// analysis::VerificationError instead of tripping asserts mid-flight.
  /// Opt-in because the guard also rejects (AEV210) inter calls whose two
  /// distinct frames have equal content, which the session prices correctly.
  /// serve::EngineFarm reads it from ResilientOptions::session and runs the
  /// guard in the submitter's context.
  bool validate_before_execute = false;
};

/// Content hash of a frame as the residency tables key it: a vectorized,
/// position-keyed hash of the pixel words (padding byte excluded) plus the
/// dimensions, defined once in addresslib/kernels/frame_hash.hpp.  Never 0,
/// which means "empty slot".  One pass over the frame, single-threaded.
/// Exposed so schedulers above the session (serve::EngineFarm) can route by
/// residency affinity without re-deriving the hashing scheme.
u64 frame_content_hash(const img::Image& image);

/// Content keys (frame_content_hash) of a call's input frames.  A key of 0
/// means "not hashed yet" (the hash itself is never 0): the layer that first
/// hashes a frame carries its key down the stack, and the layers below
/// compute only the keys that are still missing.
struct FrameKeys {
  u64 a = 0;
  u64 b = 0;

  /// These keys with the missing ones computed (`b` only when the second
  /// frame is present).
  FrameKeys resolved(const img::Image& a_frame,
                     const img::Image* b_frame) const;
};

/// Phase split of one executed call, in engine cycles — the non-blocking
/// strip-progress view a pipelining scheduler needs: while a call is in its
/// post-input phases (processing tail + result readback), the bus-side input
/// phase of the *next* call can already stream strips into the free bank
/// pair.  `input_cycles` counts bus transfer + strip-interrupt overhead of
/// the inputs; `post_input_cycles` is everything after the last input word
/// (tail processing, result readback, completion handshake).
struct CallPhases {
  u64 input_cycles = 0;
  u64 post_input_cycles = 0;
  u64 total_cycles = 0;
};

struct SessionStats {
  i64 calls = 0;
  i64 inputs_transferred = 0;
  i64 inputs_reused = 0;      ///< already on board, no PCI traffic
  i64 board_copies = 0;       ///< ZBT-to-ZBT relocations
  i64 outputs_read_back = 0;
  i64 outputs_elided = 0;     ///< side-only calls, no readback
  u64 strip_retries = 0;      ///< fault mode: strip retransmissions
  u64 readback_retries = 0;   ///< fault mode: whole-result re-reads
  u64 cycles = 0;

  double seconds(const EngineConfig& config) const {
    return static_cast<double>(cycles) * config.seconds_per_cycle();
  }
};

/// True if the host consumes only the side port of this op (the output
/// image is a by-product).
bool is_side_only_op(alib::PixelOp op);

/// The `validate_before_execute` guard, shared by EngineSession,
/// ResilientSession and serve::EngineFarm: statically verifies one call
/// against `config` (the aeverify rule set, including the duplicate-slot
/// aliasing check via frame content hashes — `keys` supplies those, missing
/// ones are computed) and throws analysis::VerificationError on any
/// error-severity finding.
void static_verify_call(const EngineConfig& config, const alib::Call& call,
                        const img::Image& a, const img::Image* b,
                        const FrameKeys& keys = {});

class EngineSession : public alib::Backend {
 public:
  explicit EngineSession(EngineConfig config = {}, SessionOptions options = {});

  std::string name() const override;
  /// execute(call, a, b, {}): the session hashes the inputs itself.
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override;
  /// Executes one call with the input content keys a layer above already
  /// computed; missing keys are hashed here, and only on the analytic path
  /// (the simulated path transfers every frame and keys nothing).
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b, FrameKeys keys);

  const SessionStats& stats() const { return stats_; }
  /// Content key of the most recent call's output, as the analytic path
  /// computed it for the result banks; 0 after a simulated call.
  u64 last_output_key() const { return last_output_key_; }
  const EngineConfig& config() const { return config_; }
  /// Phase split of the most recent call (all-zero before the first call).
  /// Residency reuse is already folded in: a call whose inputs were all
  /// resident reports `input_cycles == 0`.
  const CallPhases& last_phases() const { return last_phases_; }
  /// Forgets all residency (e.g. the host reused the buffers).  Also drops
  /// any active pins — pinned content is gone with the slots.
  void invalidate();

  /// Replaces the set of pinned frame hashes.  A pinned frame resident in
  /// an input pair is spared by victim selection while any unpinned slot is
  /// available; the pin is ADVISORY — when every evictable slot is pinned,
  /// LRU applies as if nothing were pinned (a call must always find a
  /// victim), so pins can never wedge a session.  Plan-directed execution
  /// (serve::EngineFarm residency plans, analysis/alloc.hpp keep sets) pins
  /// per call and clears with an empty vector; zero hashes are ignored.
  void pin_frames(const std::vector<u64>& hashes);

  /// The board's residency table (`.snapshot()` for shard checkpointing).
  const ResidencyTable<u64>& residency() const { return residency_; }
  /// Installs previously exported residency, replacing the current table
  /// (ResidencyTable::restore: the use clock never rewinds).
  void restore_residency(const ResidencySnapshot& snapshot) {
    residency_.restore(snapshot);
  }

  /// Attaches a transport adversary: subsequent calls run through the full
  /// cycle simulator with the injector in the loop and may throw
  /// `TransportFailure`.  Residency reuse is off on this path — the
  /// transfers must actually happen for the CRCs to protect them — and the
  /// residency table is invalidated on attach/detach.  Pass nullptr (or a
  /// disabled injector) to restore the analytic fast path.
  void set_fault(FaultInjector* fault);
  FaultInjector* fault() const { return fault_; }
  /// Timeline sink for simulated (faulted) calls; may be null.
  void set_trace(EngineTrace* trace) { trace_ = trace; }

 private:
  alib::CallResult execute_simulated(const alib::Call& call,
                                     const img::Image& a,
                                     const img::Image* b);
  bool is_pinned(u64 hash) const;

  // Threading contract: an EngineSession (and the SessionStats it
  // accumulates) is single-owner — exactly one thread may call execute().
  // Concurrency lives a layer up: serve::EngineFarm pins each session to
  // its shard worker thread and publishes stats snapshots under a lock.
  EngineConfig config_;
  SessionOptions options_;
  SessionStats stats_;
  CallPhases last_phases_;
  u64 last_output_key_ = 0;
  // Keyed by frame content hash.
  ResidencyTable<u64> residency_;
  std::vector<u64> pinned_;
  FaultInjector* fault_ = nullptr;
  EngineTrace* trace_ = nullptr;
};

}  // namespace ae::core
