// EngineFarm — the serving layer: many concurrent AddressLib callers
// multiplexed over a pool of simulated AddressEngine boards.
//
// The 2005 prototype serves one host over one PCI board.  A production
// deployment of the same design looks like an inference-serving stack: N
// boards (shards), each with its own ZBT banks, transport and fault domain,
// behind a thread-safe submission queue.  Clients submit `alib::Call`s
// (sync via the Backend interface or future-based async via submit());
// a scheduler thread drains the queue in batches and routes every call to a
// shard (a residency-planned program skips the queue: it is one request,
// placed straight on its home shard, see FarmOptions::residency_plan):
//
//   * affinity routing — a call lands on the shard where its input frames
//     are already resident (keyed by `core::frame_content_hash`), so the
//     per-session residency cache keeps saving re-DMA even with many
//     clients interleaving frames,
//   * load spill — when the affinity shard's backlog is too deep (or its
//     circuit breaker is open), the call spills to the least-loaded healthy
//     shard instead of convoying,
//   * strip pipelining — per shard, the input-strip DMA of the next queued
//     call overlaps the post-input phases of the current one (the bank-pair
//     alternation that already overlaps transfer and processing *within* a
//     call, applied *across* calls).  The overlap is priced from
//     `EngineSession::last_phases()` and removed from the modeled latency.
//
// Every shard is a `core::ResilientSession`, so transport faults stay
// shard-local: one faulty board opens its own circuit breaker and degrades
// to bit-exact software fallback while the rest of the farm keeps serving
// from hardware.  Results are bit-exact regardless of shard count,
// scheduling order or faults — the differential test suite holds the farm
// to the serial backends.
//
// Timing model: real threads execute the simulation, but throughput and
// latency are reported in the *modeled* engine-time domain, like every
// other number in this repo.  Each shard advances its own cycle clock by
// the modeled latency of the calls it serves (minus pipelining overlap);
// the farm's makespan is the slowest shard's clock.
//
// Elastic control (serve/snapshot.hpp): shards can be checkpointed,
// killed, restored warm from their last snapshot, migrated and resharded
// while the farm keeps serving.  Every elastic operation follows one state
// machine — running -> draining (scheduler parked, shard quiesced) ->
// snapshotted/mutated -> restoring -> running — and *provably drops no
// accepted work*: queued-but-unstarted requests are moved back to the
// front of the farm queue when the operation ends, by any exit; in-flight
// requests, a whole program included, finish first (their promises must
// resolve); and the in_flight_ counter that drain() trusts never
// decrements for a requeued request.
// Restores and migrations are priced onto the receiving shard's clock as
// bulk PCI bursts so the makespan stays honest about recovery.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "addresslib/call.hpp"
#include "analysis/alloc.hpp"
#include "analysis/optimizer.hpp"
#include "common/error.hpp"
#include "common/sync.hpp"
#include "core/resilient.hpp"
#include "serve/snapshot.hpp"

namespace ae::serve {

struct FarmOptions {
  /// Number of engine shards (simulated boards).
  int shards = 4;
  /// Board configuration, shared by every shard.
  core::EngineConfig config;
  /// Driver options applied to every shard (fault plan, retry budgets,
  /// breaker tuning).  With `resilient.session.validate_before_execute` set,
  /// submit() also runs the aeverify guard in the caller's context, so an
  /// ill-formed call throws analysis::VerificationError from submit()
  /// instead of failing on a shard worker.
  core::ResilientOptions resilient;
  /// Per-shard fault-plan overrides: shard s uses shard_faults[s] when
  /// s < shard_faults.size(), else `resilient.plan`.  This is how a test or
  /// sweep makes exactly one board faulty.
  std::vector<core::FaultPlan> shard_faults;
  /// An affinity shard with this many calls already queued spills to the
  /// least-loaded healthy shard instead.
  std::size_t affinity_spill_depth = 8;
  /// Bound on not-yet-dispatched submissions; submit() blocks above it.
  std::size_t queue_capacity = 4096;
  /// Calls the scheduler routes per wakeup (one batch).
  int max_batch = 16;
  /// Static admission control: when non-zero, submit() rejects any call
  /// whose planned cycle upper bound (plan_call, setup included) exceeds
  /// this budget by throwing AdmissionError in the caller's context —
  /// before the call occupies queue space or a shard.  0 disables.
  u64 admission_budget_cycles = 0;
  /// Run the aeopt rewriter (analysis::optimize_program) over whole
  /// programs handed to execute_program() before any call is submitted.
  /// Per-call submit()/execute() traffic is never rewritten — fusion and
  /// reordering only exist at program granularity.  Results stay bit-exact:
  /// every rewrite is dominance-proven and re-verified, both against
  /// `config` — the board the farm runs and admits on.
  bool optimize_on_submit = false;
  /// Plan-directed whole-program execution: execute_program() runs the
  /// aealloc pass (analysis::allocate_residency) and sends the program to
  /// ONE shard as one request; its worker runs the calls inline in the
  /// plan's schedule order, pinning each call's `keep` frames
  /// (core::EngineSession::pin_frames) so incidental eviction cannot undo
  /// the planned residency.  Each call is still validated and admitted on
  /// its own.  Results stay bit-exact — residency only changes what the
  /// timing model charges; the plan's savings land in
  /// FarmStats::planned_words_saved.  Per-call submit()/execute() traffic
  /// is unaffected.
  bool residency_plan = false;
};

/// Throws InvalidArgument on non-positive shard count / capacities, or more
/// shard fault overrides than shards.
void validate_farm_options(const FarmOptions& options);

/// Thrown by EngineFarm::submit when `admission_budget_cycles` is set and
/// the static plan's cycle upper bound exceeds it.  Derives from
/// InvalidArgument so callers that already reject malformed calls treat an
/// over-budget call the same way; carries both sides of the comparison.
class AdmissionError : public InvalidArgument {
 public:
  AdmissionError(u64 predicted_upper_cycles, u64 budget_cycles);
  u64 predicted_upper_cycles() const { return predicted_upper_cycles_; }
  u64 budget_cycles() const { return budget_cycles_; }

 private:
  u64 predicted_upper_cycles_;
  u64 budget_cycles_;
};

/// Result of EngineFarm::execute_program: the reference-executor run result
/// plus the rewrite log when `optimize_on_submit` rewrote the program
/// (empty log otherwise — the claims sum to zero).
struct ProgramExecution {
  analysis::ProgramRunResult run;
  analysis::RewriteLog log;
  bool optimized = false;  ///< at least one rewrite was applied
  /// Residency-plan-directed execution (FarmOptions::residency_plan): the
  /// allocation the program ran under.  `residency` is meaningful only when
  /// `allocated` is set.
  bool allocated = false;
  analysis::ResidencyPlan residency;
};

/// Snapshot of one shard, taken under the shard lock.
struct ShardStats {
  i64 calls = 0;                ///< calls completed by this shard
  i64 affinity_calls = 0;       ///< calls routed here by frame affinity
  u64 busy_cycles = 0;          ///< modeled shard-clock time serving calls
  u64 overlap_cycles_saved = 0; ///< strip-pipelining savings
  u64 elastic_cycles = 0;       ///< restore/migration bulk-DMA charges
  /// Calls whose strip-pipelining credit was withheld because the call
  /// needed whole-call retries: the previous call's tail can hide only the
  /// first attempt's input strips, so a retried call gets no overlap.
  i64 retry_pipeline_breaks = 0;
  std::size_t peak_queue_depth = 0;
  core::BreakerState breaker = core::BreakerState::Closed;
  core::ResilientStats resilient;  ///< the shard driver's own accounting
  core::SessionStats session;      ///< residency/readback accounting
};

/// Snapshot of the whole farm.
struct FarmStats {
  i64 submitted = 0;
  i64 completed = 0;
  i64 batches = 0;           ///< scheduler wakeups that routed >= 1 call
  i64 affinity_hits = 0;     ///< routed to the shard holding the frames
  i64 affinity_spills = 0;   ///< affinity shard too deep/unhealthy; rerouted
  i64 admission_rejected = 0;  ///< submissions refused by the cycle budget
  u64 overlap_cycles_saved = 0;
  std::size_t peak_queue_depth = 0;  ///< pending submissions high-water mark
  // Elastic-serving recovery counters (mirrored as farm trace events).
  i64 snapshots_taken = 0;   ///< snapshot_shard() blobs serialized
  i64 restores = 0;          ///< snapshot blobs installed into a shard
  i64 warm_recoveries = 0;   ///< recover_shard() warmed from a snapshot
  i64 cold_recoveries = 0;   ///< recover_shard() with no usable snapshot
  i64 frames_migrated = 0;   ///< resident frames moved by resize/rebalance
  u64 migration_pci_words = 0;  ///< PCI words those migrations streamed
  // Residency-plan execution counters (FarmOptions::residency_plan).
  i64 planned_programs = 0;     ///< programs run under an aealloc plan
  u64 planned_words_saved = 0;  ///< PCI words those plans claim saved
  std::vector<ShardStats> shards;

  /// Modeled makespan: the busiest shard's clock (cycles / seconds).
  u64 makespan_cycles() const;
  double makespan_seconds(const core::EngineConfig& config) const;
  /// Completed calls per second of modeled engine time.
  double throughput_calls_per_s(const core::EngineConfig& config) const;
};

/// A pool of resilient engine sessions behind a batching scheduler.
///
/// Lifetime: input frames are borrowed, not copied; the caller keeps
/// `a`/`b` (or a program's `inputs`) alive and unmodified until the future
/// is ready (the sync execute() and execute_program() paths trivially
/// satisfy this).  When the request ends, a borrowed frame that still sits
/// in one of the shard's input banks is copied once, so the shard never
/// refers to caller memory afterwards.
class EngineFarm : public alib::Backend {
 public:
  explicit EngineFarm(FarmOptions options = {});
  ~EngineFarm() override;  // drains, then stops the threads

  EngineFarm(const EngineFarm&) = delete;
  EngineFarm& operator=(const EngineFarm&) = delete;

  std::string name() const override;
  /// Synchronous convenience: submit + wait.  Makes the farm a drop-in
  /// `alib::Backend` for code written against single sessions.
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override;

  /// Asynchronous submission.  Blocks only while the submission queue is at
  /// capacity.  The future carries the bit-exact result; its modeled cycle
  /// count is the call's own latency net of pipelining overlap (queue wait
  /// shows up in the shard clocks / makespan, not per call).
  std::future<alib::CallResult> submit(const alib::Call& call,
                                       const img::Image& a,
                                       const img::Image* b = nullptr);

  /// Executes a whole call program against the farm.  Without
  /// `residency_plan` each call is submitted in dependence order (the
  /// farm's routing still picks shards, so residency affinity applies
  /// across the program's intermediate frames); with it the program is one
  /// request to one home shard (FarmOptions::residency_plan).  When
  /// `optimize_on_submit` is set the program first goes through the aeopt
  /// rewriter; the returned log carries the dominance-proven claims.
  /// External frames are taken from `inputs` in frame-declaration order.
  ProgramExecution execute_program(const analysis::CallProgram& program,
                                   const std::vector<img::Image>& inputs);

  /// Waits until every accepted submission has completed.
  void drain();
  /// Drains, then stops the scheduler and shard workers.  Idempotent;
  /// called by the destructor.  Further submit() calls throw.
  void shutdown();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  const FarmOptions& options() const { return options_; }
  const core::EngineConfig& config() const { return options_.config; }

  /// Thread-safe snapshot of the farm and every shard.
  FarmStats stats() const;

  /// Attaches a timeline sink for scheduler events (QueueDepth,
  /// BatchDispatched, ShardOccupancy, and the elastic events SnapshotTaken,
  /// ShardKilled, ShardRestored, FramesMigrated, ShardCountChanged).
  /// Attach while idle; the farm does not synchronize trace
  /// reconfiguration against in-flight traffic.
  void set_scheduler_trace(core::EngineTrace* trace);

  // --- Elastic control ---------------------------------------------------
  //
  // Safe to call from any thread while traffic is flowing.  Each operation
  // serializes against shutdown() and other elastic calls (lifecycle_mu_),
  // parks the batching scheduler, and quiesces the affected shards behind
  // their own locks before touching per-shard state, so in-flight calls
  // never observe a half-mutated farm.  Accepted work is never dropped:
  // a quiesced shard's queued-but-unstarted requests move back to the
  // front of the farm queue and are re-routed when the scheduler resumes,
  // also when the operation throws.

  /// Drains shard `shard` to a request boundary and serializes its state —
  /// residency tables with the content of the input-bank frames (in key
  /// order), breaker/backoff machine, modeled clock, and the descriptors of
  /// its requeued backlog (every call of a queued program) — into a
  /// versioned, checksummed blob.  The blob is returned and also retained
  /// as the shard's last snapshot (what recover_shard() warms up from).
  /// The shard's fault plan gets one SnapshotCorrupt opportunity per call.
  std::vector<u8> snapshot_shard(int shard);

  /// Full-fidelity restore of a snapshot blob into shard `shard`: breaker
  /// state, residency and frame content all come back; the shard clock
  /// never rewinds and is charged one bulk-DMA burst for the streamed
  /// frames.  Frames stream through the shard's fault injector
  /// (RestoreCorrupt), retrying per frame up to the transport budget; a
  /// frame that never arrives clean stays cold.  Throws SnapshotCorruption
  /// or SnapshotVersionMismatch on a bad blob, leaving the shard serving
  /// with its previous state; only a failed CRC (SnapshotChecksumMismatch)
  /// counts as a snapshot checksum detection.
  void restore_shard(int shard, const std::vector<u8>& blob);

  /// Simulated board power loss: on-board state (residency, frames) is
  /// gone and the breaker is forced open, so service continues from
  /// software fallback until recover_shard() swaps a board in (or the
  /// breaker's own cooldown probe finds the slot healthy again).
  void kill_shard(int shard);

  /// Board swap + recovery: installs a fresh transport adversary (clean
  /// plan, breaker closed) and then warms the board from the shard's last
  /// snapshot if one exists and parses clean — restoring residency and
  /// streaming frame content back in one priced bulk burst — else the
  /// board comes up cold.  Returns true for a warm recovery.
  bool recover_shard(int shard);

  /// Grows or shrinks the shard count under load.  Growth appends fresh
  /// shards; shrink drains each dying shard, requeues its backlog,
  /// migrates its input-bank frames to a surviving shard (priced in PCI
  /// words) and joins its worker.  Routing state is remapped so no hash
  /// points at a dead shard.
  void resize(int shards);

  /// Waits for the farm to go fully idle, then greedily migrates input-bank
  /// frames, smallest key first, from frame-rich shards to frame-poor ones
  /// until counts differ by at most one (or boards run out of free banks).
  /// Returns the number of frames moved; each move is priced in PCI words
  /// on the receiver.
  int rebalance();

 private:
  /// A plan-directed program (FarmOptions::residency_plan), run inline by
  /// its home shard's worker.  The referenced state is the caller's, alive
  /// until the promise is fulfilled.
  struct ProgramJob {
    const analysis::CallProgram& program;
    const analysis::ResidencyPlan& plan;
    const std::vector<img::Image>& inputs;
    /// The shard the program runs on: a residency plan is only worth
    /// anything if the whole program shares one board.  Clamped when a
    /// resize() shrank the farm before the program started.
    int home = 0;
    std::promise<analysis::ProgramRunResult> promise;
  };

  /// One unit of shard work: a hand-submitted call, or a whole program.
  struct Request {
    alib::Call call;
    /// The caller's frames, borrowed (analysis::borrow_frame).
    analysis::FrameHandle a;
    analysis::FrameHandle b;
    /// Content keys of the inputs, hashed once at submission and carried
    /// to the shard's session: routing, residency and snapshots all key
    /// frames by them.
    core::FrameKeys keys;
    std::promise<alib::CallResult> promise;
    /// Set for a planned program, which uses none of the fields above.
    std::unique_ptr<ProgramJob> program;
  };

  struct Shard {
    explicit Shard(const core::EngineConfig& config,
                   const core::ResilientOptions& options)
        : session(config, options) {}

    core::ResilientSession session;  // worker-thread-only after start
    std::thread worker;

    mutable sync::Mutex mu;
    std::condition_variable_any cv;  // work available / worker stopping
    std::deque<Request> queue AE_GUARDED_BY(mu);
    bool busy AE_GUARDED_BY(mu) = false;
    bool stopping AE_GUARDED_BY(mu) = false;
    // Stats below: the worker publishes a snapshot after each call.
    i64 calls AE_GUARDED_BY(mu) = 0;
    i64 affinity_calls AE_GUARDED_BY(mu) = 0;
    u64 clock_cycles AE_GUARDED_BY(mu) = 0;  ///< modeled shard clock
    u64 overlap_saved AE_GUARDED_BY(mu) = 0;
    std::size_t peak_depth AE_GUARDED_BY(mu) = 0;
    core::BreakerState breaker AE_GUARDED_BY(mu) = core::BreakerState::Closed;
    core::ResilientStats resilient AE_GUARDED_BY(mu);
    core::SessionStats session_stats AE_GUARDED_BY(mu);
    u64 elastic_cycles AE_GUARDED_BY(mu) = 0;
    i64 retry_pipeline_breaks AE_GUARDED_BY(mu) = 0;
    /// The content of the frames in this board's input banks, by content
    /// key, held by shared handle — exactly the working set a snapshot
    /// carries; the result bank is key-only.  Maintained by the worker as
    /// residency changes; the raw material of snapshots and migration.
    /// Ordered by key, so snapshots and rebalance() are pure functions of
    /// shard state.  A caller's frame is borrowed here while its request
    /// runs and copied when the request ends (finish_request).
    std::map<u64, analysis::FrameHandle> resident AE_GUARDED_BY(mu);
    /// Most recent serialize_snapshot() blob (possibly rotted by the
    /// injector); what recover_shard() warms up from.
    std::vector<u8> last_snapshot AE_GUARDED_BY(mu);

    // Worker-thread-only pipelining state: phase split of the previous
    // engine-served call (software-fallback calls break the pipeline).
    core::CallPhases prev_phases;
    bool prev_on_engine = false;
  };

  void scheduler_loop();
  void worker_loop(Shard& shard);
  /// The per-call checks every call passes, submitted or planned:
  /// validation, hashing (only the keys `keys` lacks), the optional
  /// aeverify guard, then admission against the cycle budget.  Returns the
  /// resolved keys.
  core::FrameKeys admit(const alib::Call& call, const img::Image& a,
                        const img::Image* b, core::FrameKeys keys);

  /// What serve_call hands back.
  struct Served {
    alib::CallResult result;
    bool on_engine = false;  ///< the board, not the software fallback, ran it
  };
  /// One call of the shard's current request, on the worker thread: pins
  /// `pins` (empty clears them), executes on the shard's session, credits
  /// strip overlap when `can_overlap`, and publishes the shard's clock,
  /// stats and resident frames under shard.mu.  The one per-call body of
  /// hand-submitted calls and program steps.
  Served serve_call(Shard& shard, const alib::Call& call,
                    const analysis::FrameHandle& a,
                    const analysis::FrameHandle& b,
                    const core::FrameKeys& keys, const std::vector<u64>& pins,
                    bool can_overlap);
  /// Runs a planned program on its home shard's worker, one serve_call per
  /// call; only the first may take strip overlap.
  void serve_program(Shard& shard, ProgramJob& job, bool can_overlap);
  /// Ends the shard's current request before its promise is fulfilled:
  /// copies any borrowed frame still in an input bank, frees the shard for
  /// elastic operations, sets the pipeline state from the last call, and
  /// counts `calls` complete (and, for a program, submitted) — so a caller
  /// sees its calls counted once its future is ready.
  void finish_request(Shard& shard, bool on_engine, i64 calls, bool program);
  /// The least-loaded shard: a closed breaker first, then the shortest
  /// backlog, then the earliest modeled clock.  route()'s load-balancing
  /// pick and a plan-directed program's home shard (execute_program).  The
  /// caller keeps `shards_` stable (scheduler thread, or lifecycle_mu_).
  int least_loaded_shard();
  /// Picks the shard for a request; sets `affinity_hit` when the choice
  /// came from frame residency rather than load balancing.
  int route(const Request& request, bool& affinity_hit);
  void dispatch(Request request, int shard_index, bool affinity_hit);
  /// Appends `request` to the shard's queue and wakes its worker; returns
  /// the new depth.
  std::size_t enqueue(Shard& shard, Request request, bool affinity_hit);

  /// Parks the batching scheduler for the guard's lifetime: sets `paused_`
  /// and blocks until the scheduler thread is provably inside its wait
  /// loop, after which shards_, affinity_ and the pending queue may be
  /// mutated from the owning thread.  Every elastic operation opens with
  /// lifecycle_mu_ held and this guard, which first refuses a farm that is
  /// shut down; the destructor resumes scheduling, including on exception
  /// paths.
  class SchedulerPause {
   public:
    explicit SchedulerPause(EngineFarm& farm) AE_REQUIRES(farm.lifecycle_mu_);
    ~SchedulerPause();
    SchedulerPause(const SchedulerPause&) = delete;
    SchedulerPause& operator=(const SchedulerPause&) = delete;

   private:
    EngineFarm& farm_;
  };

  /// The one way an elastic operation takes hold of a shard (snapshot,
  /// restore, kill, recover, and resize()'s shrink loop).  Constructed with
  /// lifecycle_mu_ held and the scheduler parked: it takes shard.mu, waits
  /// for the worker to finish its current call and steals the queued
  /// backlog.  The destructor releases shard.mu and only then returns the
  /// backlog to the front of the farm queue — on every exit, a throw
  /// included, so a failed operation drops no accepted work and mu_ is
  /// never taken under a shard lock.
  class AE_SCOPED_CAPABILITY QuiescedShard {
   public:
    QuiescedShard(EngineFarm& farm, Shard& shard) AE_ACQUIRE(shard.mu);
    ~QuiescedShard() AE_RELEASE();
    QuiescedShard(const QuiescedShard&) = delete;
    QuiescedShard& operator=(const QuiescedShard&) = delete;

    /// The stolen requests, oldest first.
    const std::deque<Request>& backlog() const { return backlog_; }

   private:
    EngineFarm& farm_;
    Shard& shard_;
    std::deque<Request> backlog_;
  };

  /// Shard `shard_index`, after checking the index is in range.
  Shard& shard_at(int shard_index);
  /// Launches the shard's worker thread.  Captures the shard by raw
  /// pointer (the heap object, not the vector slot) so resize() growing
  /// `shards_` cannot dangle a running worker's reference.
  void start_worker(Shard& shard);
  /// Builds shard `shard` with the farm's driver options and
  /// configured_plan(shard); the constructor and resize() growth both use it.
  std::unique_ptr<Shard> make_shard(int shard) const;
  /// Blocks (under shard.mu) until the worker is between calls.
  void wait_shard_idle(Shard& shard) AE_REQUIRES(shard.mu);
  /// Returns stolen requests to the *front* of the farm queue, preserving
  /// their order ahead of newer submissions.  Until then they remain
  /// accepted: in_flight_ still counts them.
  void requeue_front(std::deque<Request> backlog);
  /// The fault plan shard `shard` was configured with.
  const core::FaultPlan& configured_plan(int shard) const;
  /// Modeled cycles for streaming `words` PCI words as one
  /// descriptor-chained burst: sustained bus rate plus a single completion
  /// handshake — no per-strip interrupts, because nothing consumes strips
  /// during a restore.
  u64 bulk_restore_cycles(u64 words) const;
  /// Refreshes the shard's resident frames after a call from the session's
  /// input banks: drops what left them and shares in the call's inputs
  /// that arrived (a frame already tracked keeps its handle).
  void update_resident_frames(Shard& shard, const analysis::FrameHandle& a,
                              const analysis::FrameHandle& b,
                              const core::FrameKeys& keys)
      AE_REQUIRES(shard.mu);
  /// Streams snapshot frames onto the shard's board through its injector,
  /// verifying each frame's CRC and retrying within the transport budget;
  /// a frame that never streams clean is pruned from `residency` and stays
  /// cold.  Returns PCI words streamed (including retries).
  u64 install_frames(Shard& shard, const std::vector<ResidentFrame>& frames,
                     core::ResidencyTable<u64>& residency)
      AE_REQUIRES(shard.mu);
  /// Installs a parsed snapshot into a quiesced shard: frames, residency,
  /// optionally the breaker machine; charges the bulk-DMA burst to the
  /// shard clock (which never rewinds below the live clock).
  void install_snapshot(Shard& shard, const ShardSnapshot& snapshot,
                        bool with_breaker) AE_REQUIRES(shard.mu);
  /// Moves frames (their handles) into `to`'s free input banks (skipping
  /// frames already resident there), updates routing, prices the stream.
  /// Returns frames actually installed.  Scheduler must be parked.
  int install_migrated(Shard& to, int to_index,
                       std::vector<ResidentFrame> frames);
  /// Records an elastic trace event and lets the caller bump counters.
  void record_elastic_event(core::TraceEvent event, i64 arg);

  FarmOptions options_;
  /// Shard storage.  Deliberately unannotated: workers and the scheduler
  /// read it locklessly under a documented protocol — the vector's
  /// *structure* (size, element pointers) is mutated only by resize() with
  /// lifecycle_mu_ held AND the scheduler parked AND the affected workers
  /// joined, so every thread that can touch a Shard holds it alive.
  /// stats()/name() take lifecycle_mu_ before iterating.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread scheduler_;  ///< joined only under lifecycle_mu_

  /// Serializes shutdown and every elastic operation: `scheduler_`/`worker`
  /// joins and the joined flag must be owned by exactly one caller
  /// (destructor and explicit shutdown() may race), and at most one
  /// elastic operation may reshape the farm at a time.  Ordered before
  /// mu_ — shutdown holds it across drain().
  mutable sync::Mutex lifecycle_mu_;
  bool joined_ AE_GUARDED_BY(lifecycle_mu_) = false;

  mutable sync::Mutex mu_;
  std::condition_variable_any sched_cv_;  // pending work / stop (scheduler)
  std::condition_variable_any space_cv_;  // submission queue has room
  std::condition_variable_any idle_cv_;   // in-flight count reached zero
  std::deque<Request> pending_ AE_GUARDED_BY(mu_);
  bool stop_ AE_GUARDED_BY(mu_) = false;
  bool paused_ AE_GUARDED_BY(mu_) = false;  ///< SchedulerPause is active
  /// True while the scheduler thread is parked inside its wait loop (and
  /// therefore touching no shard or routing state).
  bool scheduler_idle_ AE_GUARDED_BY(mu_) = false;
  std::condition_variable_any pause_cv_;  // scheduler reached its wait loop
  i64 in_flight_ AE_GUARDED_BY(mu_) = 0;  ///< accepted, not yet completed
  i64 submitted_ AE_GUARDED_BY(mu_) = 0;
  i64 completed_ AE_GUARDED_BY(mu_) = 0;
  i64 batches_ AE_GUARDED_BY(mu_) = 0;
  i64 affinity_hits_ AE_GUARDED_BY(mu_) = 0;
  i64 affinity_spills_ AE_GUARDED_BY(mu_) = 0;
  i64 admission_rejected_ AE_GUARDED_BY(mu_) = 0;
  std::size_t peak_queue_depth_ AE_GUARDED_BY(mu_) = 0;
  u64 dispatch_seq_ AE_GUARDED_BY(mu_) = 0;  ///< trace timestamp domain
  core::EngineTrace* scheduler_trace_ AE_GUARDED_BY(mu_) = nullptr;
  i64 snapshots_taken_ AE_GUARDED_BY(mu_) = 0;
  i64 restores_ AE_GUARDED_BY(mu_) = 0;
  i64 warm_recoveries_ AE_GUARDED_BY(mu_) = 0;
  i64 cold_recoveries_ AE_GUARDED_BY(mu_) = 0;
  i64 frames_migrated_ AE_GUARDED_BY(mu_) = 0;
  u64 migration_pci_words_ AE_GUARDED_BY(mu_) = 0;
  i64 planned_programs_ AE_GUARDED_BY(mu_) = 0;
  u64 planned_words_saved_ AE_GUARDED_BY(mu_) = 0;

  // Scheduler-thread-only while scheduling; elastic operations may mutate
  // it with the scheduler parked (the park/resume handshake on mu_ gives
  // the necessary happens-before edges): frame hash -> shard that last
  // received it.
  std::unordered_map<u64, int> affinity_;
};

}  // namespace ae::serve
