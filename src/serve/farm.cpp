#include "serve/farm.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/domain.hpp"
#include "analysis/planner.hpp"
#include "core/timing_model.hpp"

namespace ae::serve {
namespace {

/// True when `key` names a frame in one of the board's input banks (the
/// frames a shard holds content for; the result bank is key-only).
bool in_input_bank(const core::ResidencyTable<u64>& board, u64 key) {
  return key != 0 && std::any_of(board.slots().begin(), board.slots().end(),
                                 [&](const auto& s) { return s.key == key; });
}

std::string admission_message(u64 predicted, u64 budget) {
  std::ostringstream os;
  os << "call rejected by admission control: planned cycle upper bound "
     << predicted << " exceeds the budget of " << budget << " cycles";
  return os.str();
}

}  // namespace

AdmissionError::AdmissionError(u64 predicted_upper_cycles, u64 budget_cycles)
    : InvalidArgument(admission_message(predicted_upper_cycles,
                                        budget_cycles)),
      predicted_upper_cycles_(predicted_upper_cycles),
      budget_cycles_(budget_cycles) {}

void validate_farm_options(const FarmOptions& options) {
  AE_EXPECTS(options.shards > 0, "farm needs at least one shard");
  AE_EXPECTS(options.queue_capacity > 0, "queue capacity must be positive");
  AE_EXPECTS(options.max_batch > 0, "batch size must be positive");
  AE_EXPECTS(options.affinity_spill_depth > 0,
             "affinity spill depth must be positive");
  AE_EXPECTS(options.shard_faults.size() <=
                 static_cast<std::size_t>(options.shards),
             "more per-shard fault plans than shards");
  for (const core::FaultPlan& plan : options.shard_faults)
    core::validate_plan(plan);
  validate_resilient_options(options.resilient);
}

u64 FarmStats::makespan_cycles() const {
  u64 makespan = 0;
  for (const ShardStats& s : shards)
    makespan = std::max(makespan, s.busy_cycles);
  return makespan;
}

double FarmStats::makespan_seconds(const core::EngineConfig& config) const {
  return static_cast<double>(makespan_cycles()) * config.seconds_per_cycle();
}

double FarmStats::throughput_calls_per_s(
    const core::EngineConfig& config) const {
  const double seconds = makespan_seconds(config);
  return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
}

EngineFarm::EngineFarm(FarmOptions options) : options_(std::move(options)) {
  validate_farm_options(options_);
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) shards_.push_back(make_shard(s));
  for (auto& shard : shards_) start_worker(*shard);
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

EngineFarm::~EngineFarm() { shutdown(); }

void EngineFarm::start_worker(Shard& shard) {
  // Capture the heap object, never the vector slot: resize() may grow
  // `shards_` (reallocating the slots) while this worker runs.
  Shard* p = &shard;
  shard.worker = std::thread([this, p] { worker_loop(*p); });
}

std::unique_ptr<EngineFarm::Shard> EngineFarm::make_shard(int shard) const {
  core::ResilientOptions shard_options = options_.resilient;
  shard_options.plan = configured_plan(shard);
  return std::make_unique<Shard>(options_.config, shard_options);
}

std::string EngineFarm::name() const {
  sync::MutexLock lifecycle(lifecycle_mu_);  // resize() mutates shards_
  return "farm/" + std::to_string(shards_.size()) + "x" +
         shards_.front()->session.name();
}

alib::CallResult EngineFarm::execute(const alib::Call& call,
                                     const img::Image& a,
                                     const img::Image* b) {
  return submit(call, a, b).get();
}

ProgramExecution EngineFarm::execute_program(
    const analysis::CallProgram& program,
    const std::vector<img::Image>& inputs) {
  ProgramExecution out;
  const analysis::CallProgram* to_run = &program;
  analysis::CallProgram optimized;
  if (options_.optimize_on_submit) {
    // Rewrites are proven against this farm's board, like admission and
    // the residency plan below.
    analysis::OptimizeResult result =
        analysis::optimize_program(program, {options_.config});
    out.log = std::move(result.log);
    out.optimized = result.changed;
    optimized = std::move(result.program);
    to_run = &optimized;
  }
  if (options_.residency_plan) {
    // Plan-directed execution: the aealloc pass decides the schedule and
    // which frames each call must leave resident; the whole program shares
    // one shard so the planned residency is physical, not statistical.
    analysis::AllocOptions alloc_options;
    alloc_options.plan.config = options_.config;
    out.residency = analysis::allocate_residency(*to_run, alloc_options);
    out.allocated = true;
    Request request;
    request.program =
        std::make_unique<ProgramJob>(*to_run, out.residency, inputs);
    std::future<analysis::ProgramRunResult> done =
        request.program->promise.get_future();
    {
      // lifecycle_mu_ keeps shards_ stable against resize() from the pick
      // to the enqueue, and orders this against shutdown().
      sync::MutexLock lifecycle(lifecycle_mu_);
      {
        sync::MutexLock lock(mu_);
        AE_EXPECTS(!stop_, "execute_program() on a farm that is shut down");
        ++in_flight_;
      }
      request.program->home = least_loaded_shard();
      Shard& home = *shards_[static_cast<std::size_t>(request.program->home)];
      enqueue(home, std::move(request), /*affinity_hit=*/false);
    }
    out.run = done.get();
    sync::MutexLock lock(mu_);
    ++planned_programs_;
    planned_words_saved_ += out.residency.words_saved;
    return out;
  }
  // run_program drives the farm through its Backend face: each call is a
  // sync submit, so routing, residency affinity and admission control all
  // apply exactly as for hand-submitted traffic.
  out.run = analysis::run_program(*to_run, *this, inputs);
  return out;
}

std::future<alib::CallResult> EngineFarm::submit(const alib::Call& call,
                                                 const img::Image& a,
                                                 const img::Image* b) {
  // Fail malformed calls in the caller's context, not on a worker.
  Request request;
  request.keys = admit(call, a, b, {});
  request.call = call;
  request.a = analysis::borrow_frame(a);
  if (b != nullptr) request.b = analysis::borrow_frame(*b);
  std::future<alib::CallResult> future = request.promise.get_future();

  sync::MutexLock lock(mu_);
  while (!stop_ && pending_.size() >= options_.queue_capacity)
    space_cv_.wait(mu_);
  AE_EXPECTS(!stop_, "submit() on a farm that is shut down");
  pending_.push_back(std::move(request));
  ++submitted_;
  ++in_flight_;
  peak_queue_depth_ = std::max(peak_queue_depth_, pending_.size());
  if (scheduler_trace_ != nullptr)
    scheduler_trace_->record(dispatch_seq_, core::TraceEvent::QueueDepth,
                             static_cast<i64>(pending_.size()));
  sched_cv_.notify_one();
  return future;
}

core::FrameKeys EngineFarm::admit(const alib::Call& call, const img::Image& a,
                                  const img::Image* b, core::FrameKeys keys) {
  alib::validate_call(call, a, b);
  // A frame's identity is computed once, here, and travels with the
  // request: the router, the shard's session and its snapshot bookkeeping
  // all read these keys instead of hashing the frame again.
  keys = keys.resolved(a, b);
  if (options_.resilient.session.validate_before_execute)
    core::static_verify_call(options_.config, call, a, b, keys);
  if (options_.admission_budget_cycles > 0) {
    // Static admission: the planned upper bound is available before any
    // backend runs, so an over-budget call never occupies queue space.
    // Segment calls first try the value-domain proof — a criterion proven
    // vacuous (or seeds proven label-blocked) collapses the visit envelope
    // with no pixel reads at all — and only fall back to the runtime
    // reachability probe when the domain proves neither: the image is in
    // hand here, the probe costs a fraction of the expansion the worker
    // runs anyway, and the content-free bound (a full-frame flood) would
    // reject every sparse segment call under a tight budget.
    analysis::PlanOptions plan_options;
    plan_options.config = options_.config;
    analysis::CostEnvelope envelope;
    if (call.mode == alib::Mode::Segment) {
      const std::optional<analysis::SegmentVisitInterval> proven =
          analysis::proven_segment_visits(call, analysis::FrameDomain::top(),
                                          a.size());
      envelope =
          proven.has_value()
              ? analysis::plan_call(call, a.size(), plan_options, *proven)
              : analysis::plan_call(
                    call, a.size(), plan_options,
                    alib::probe_segment_reachability(a, call.segment));
    } else {
      envelope = analysis::plan_call(call, a.size(), plan_options);
    }
    if (envelope.cycles.upper > options_.admission_budget_cycles) {
      {
        sync::MutexLock lock(mu_);
        ++admission_rejected_;
      }
      throw AdmissionError(envelope.cycles.upper,
                           options_.admission_budget_cycles);
    }
  }
  return keys;
}

int EngineFarm::route(const Request& request, bool& affinity_hit) {
  affinity_hit = false;
  // A program requeued by an elastic operation goes back to its home
  // shard, clamped because a resize() may have shrunk the farm.
  if (request.program != nullptr)
    return std::min(request.program->home,
                    static_cast<int>(shards_.size()) - 1);
  // Affinity first: a shard already holding one of the input frames skips
  // that frame's strip DMA entirely.
  for (const u64 hash : {request.keys.a, request.keys.b}) {
    if (hash == 0) continue;
    const auto hit = affinity_.find(hash);
    if (hit == affinity_.end()) continue;
    Shard& shard = *shards_[static_cast<std::size_t>(hit->second)];
    {
      sync::MutexLock lock(shard.mu);
      const std::size_t backlog = shard.queue.size() + (shard.busy ? 1 : 0);
      if (shard.breaker == core::BreakerState::Closed &&
          backlog < options_.affinity_spill_depth) {
        affinity_hit = true;
        return hit->second;
      }
    }
    // Affinity shard convoyed or unhealthy: spill to load balancing.
    {
      sync::MutexLock farm_lock(mu_);
      ++affinity_spills_;
    }
    break;
  }
  return least_loaded_shard();
}

int EngineFarm::least_loaded_shard() {
  // Least-loaded healthy shard; modeled shard clock breaks backlog ties so
  // work spreads even when every queue is empty.  An open breaker only
  // wins when every shard is broken (the farm still answers, via each
  // shard's software fallback).
  int best = 0;
  u64 best_key[3] = {~0ull, ~0ull, ~0ull};
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    sync::MutexLock lock(shard.mu);
    const u64 key[3] = {
        shard.breaker == core::BreakerState::Closed ? 0ull : 1ull,
        shard.queue.size() + (shard.busy ? 1u : 0u), shard.clock_cycles};
    if (std::lexicographical_compare(key, key + 3, best_key, best_key + 3)) {
      std::copy(key, key + 3, best_key);
      best = s;
    }
  }
  return best;
}

void EngineFarm::dispatch(Request request, int shard_index,
                          bool affinity_hit) {
  // The shard will hold these frames after the call; later submissions with
  // the same content follow them (batch-mates included).
  if (request.keys.a != 0) affinity_[request.keys.a] = shard_index;
  if (request.keys.b != 0) affinity_[request.keys.b] = shard_index;
  const std::size_t depth =
      enqueue(*shards_[static_cast<std::size_t>(shard_index)],
              std::move(request), affinity_hit);
  sync::MutexLock lock(mu_);
  if (affinity_hit) ++affinity_hits_;
  if (scheduler_trace_ != nullptr)
    scheduler_trace_->record(dispatch_seq_, core::TraceEvent::ShardOccupancy,
                             static_cast<i64>(depth));
}

std::size_t EngineFarm::enqueue(Shard& shard, Request request,
                                bool affinity_hit) {
  std::size_t depth = 0;
  {
    sync::MutexLock lock(shard.mu);
    if (affinity_hit) ++shard.affinity_calls;
    shard.queue.push_back(std::move(request));
    depth = shard.queue.size();
    shard.peak_depth = std::max(shard.peak_depth, depth);
  }
  shard.cv.notify_one();
  return depth;
}

void EngineFarm::scheduler_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      sync::MutexLock lock(mu_);
      // Park point: while waiting here the scheduler touches no shard or
      // routing state, which is what SchedulerPause waits to observe.
      scheduler_idle_ = true;
      pause_cv_.notify_all();
      while (!stop_ && (pending_.empty() || paused_)) sched_cv_.wait(mu_);
      scheduler_idle_ = false;
      if (pending_.empty()) return;  // stop_ and nothing left to route
      const auto take = std::min(pending_.size(),
                                 static_cast<std::size_t>(options_.max_batch));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      ++batches_;
      ++dispatch_seq_;
      if (scheduler_trace_ != nullptr) {
        scheduler_trace_->record(dispatch_seq_,
                                 core::TraceEvent::BatchDispatched,
                                 static_cast<i64>(take));
        scheduler_trace_->record(dispatch_seq_, core::TraceEvent::QueueDepth,
                                 static_cast<i64>(pending_.size()));
      }
      space_cv_.notify_all();
    }
    for (Request& request : batch) {
      bool hit = false;
      const int shard = route(request, hit);
      dispatch(std::move(request), shard, hit);
    }
  }
}

void EngineFarm::worker_loop(Shard& shard) {
  for (;;) {
    Request request;
    bool can_overlap = false;
    {
      sync::MutexLock lock(shard.mu);
      while (!shard.stopping && shard.queue.empty()) shard.cv.wait(shard.mu);
      if (shard.queue.empty()) return;  // stopping and drained
      request = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.busy = true;
      // Overlap is only physical when this request was already queued
      // while the previous call ran — its strips had a tail to hide in.
      can_overlap = shard.prev_on_engine;
    }
    if (request.program != nullptr) {
      serve_program(shard, *request.program, can_overlap);
      continue;
    }
    Served served;
    std::exception_ptr error;
    try {
      // Ordinary traffic pins nothing, which also clears a program's pins.
      served = serve_call(shard, request.call, request.a, request.b,
                          request.keys, {}, can_overlap);
    } catch (...) {
      // ResilientSession absorbs transport faults; anything arriving here
      // is a programming error (bad call slipped past validation).  The
      // caller gets the exception; the shard keeps serving.
      error = std::current_exception();
    }
    finish_request(shard, served.on_engine, 1, /*program=*/false);
    if (error)
      request.promise.set_exception(error);
    else
      request.promise.set_value(std::move(served.result));
  }
}

EngineFarm::Served EngineFarm::serve_call(
    Shard& shard, const alib::Call& call, const analysis::FrameHandle& a,
    const analysis::FrameHandle& b, const core::FrameKeys& keys,
    const std::vector<u64>& pins, bool can_overlap) {
  const i64 fallbacks_before = shard.session.stats().fallback_calls;
  const i64 retries_before = shard.session.stats().call_retries;
  // Pins are per-call: a plan-directed call installs its keep set, so a
  // plan's pins never outlive the call they were computed for.
  shard.session.pin_frames(pins);
  Served served;
  served.result = shard.session.execute(call, *a, b.get(), keys);
  served.on_engine = shard.session.stats().fallback_calls == fallbacks_before;
  alib::CallResult& result = served.result;
  const bool on_engine = served.on_engine;
  // A call that needed whole-call retries streamed its inputs more than
  // once, but the previous call's tail could hide only the *first*
  // attempt's strips.  Crediting overlap to the surviving attempt would
  // subtract the same tail twice and understate the shard clock (and the
  // farm makespan) under faults.
  const bool retried = shard.session.stats().call_retries != retries_before;
  u64 overlap = 0;
  if (on_engine && can_overlap && !retried) {
    const core::CallPhases& phases = shard.session.session().last_phases();
    overlap =
        std::min(phases.input_cycles, shard.prev_phases.post_input_cycles);
    result.stats.cycles -= std::min(result.stats.cycles, overlap);
    result.stats.model_seconds = static_cast<double>(result.stats.cycles) *
                                 options_.config.seconds_per_cycle();
  }
  sync::MutexLock lock(shard.mu);
  ++shard.calls;
  shard.clock_cycles += result.stats.cycles;
  shard.overlap_saved += overlap;
  if (on_engine && can_overlap && retried) ++shard.retry_pipeline_breaks;
  shard.breaker = shard.session.breaker();
  shard.resilient = shard.session.stats();
  shard.session_stats = shard.session.session().stats();
  update_resident_frames(shard, a, b, keys);
  if (on_engine) shard.prev_phases = shard.session.session().last_phases();
  return served;
}

void EngineFarm::serve_program(Shard& shard, ProgramJob& job,
                               bool can_overlap) {
  const analysis::CallProgram& program = job.program;
  // One content key per frame value: inputs are hashed on first use,
  // results take the key their call's session computed.  A result the
  // session did not hash (simulated or fallback call) is hashed on first
  // use too.
  std::vector<u64> keys(program.frames().size(), 0);
  i64 calls = 0;
  bool on_engine = false;
  analysis::ProgramRunResult run;
  std::exception_ptr error;
  try {
    run = analysis::run_program(
        program, job.plan.schedule, job.inputs,
        [&](std::size_t position, const analysis::ProgramCall& pc,
            const std::vector<analysis::FrameHandle>& values) {
          const auto key = [&](i32 f) {
            const auto i = static_cast<std::size_t>(f);
            if (keys[i] == 0) keys[i] = core::frame_content_hash(*values[i]);
            return keys[i];
          };
          const analysis::FrameHandle& a =
              values[static_cast<std::size_t>(pc.input_a)];
          analysis::FrameHandle b;
          core::FrameKeys call_keys{key(pc.input_a), 0};
          if (pc.input_b != analysis::kNoFrame) {
            b = values[static_cast<std::size_t>(pc.input_b)];
            call_keys.b = key(pc.input_b);
          }
          admit(pc.call, *a, b.get(), call_keys);
          // Each call pins the plan's keep set, as far as it exists yet.
          std::vector<u64> pins;
          for (const i32 kept : job.plan.assignments[position].keep)
            if (program.valid_frame(kept) &&
                values[static_cast<std::size_t>(kept)] != nullptr)
              pins.push_back(key(kept));
          ++calls;
          on_engine = false;  // a call that throws breaks the pipeline
          // A later call was never queued behind this one, so only the
          // first call may hide its strips in the previous request's tail.
          Served served = serve_call(shard, pc.call, a, b, call_keys, pins,
                                     can_overlap && position == 0);
          on_engine = served.on_engine;
          // Only an engine-served call left its key in the session (the
          // software fallback hashes nothing).
          if (on_engine)
            keys[static_cast<std::size_t>(pc.output)] =
                shard.session.session().last_output_key();
          return std::move(served.result);
        });
  } catch (...) {
    // A call's own error (validation, admission, a failed execute) fails
    // the program; the caller gets it from the future.
    error = std::current_exception();
  }
  finish_request(shard, on_engine, calls, /*program=*/true);
  if (error)
    job.promise.set_exception(error);
  else
    job.promise.set_value(std::move(run));
}

void EngineFarm::finish_request(Shard& shard, bool on_engine, i64 calls,
                                bool program) {
  {
    sync::MutexLock lock(shard.mu);
    // The request's borrowed frames die with it: one still in an input
    // bank, and not already held by a buffer of the farm's, is copied now.
    for (auto& [key, frame] : shard.resident)
      if (analysis::is_borrowed(frame))
        frame = std::make_shared<const img::Image>(*frame);
    shard.busy = false;
    // Pipeline continuity: the *next* request may overlap only if it is
    // already waiting now (otherwise its strips missed this tail).
    shard.prev_on_engine = on_engine && !shard.queue.empty();
  }
  shard.cv.notify_all();  // elastic operations wait for !busy
  sync::MutexLock lock(mu_);
  // A program's admitted calls are counted submitted here, with their
  // completion; a hand-submitted call was counted when it was queued.
  if (program) submitted_ += calls;
  completed_ += calls;
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

void EngineFarm::drain() {
  sync::MutexLock lock(mu_);
  while (in_flight_ != 0) idle_cv_.wait(mu_);
}

void EngineFarm::shutdown() {
  // Serialize the whole teardown: the destructor and explicit shutdown()
  // callers may race, and std::thread::join() from two threads at once is
  // undefined behavior.  The previous guard read scheduler_.joinable()
  // under mu_ while another caller could be join()ing it — both callers
  // could pass the check and double-join.
  sync::MutexLock lifecycle(lifecycle_mu_);
  if (joined_) return;  // already shut down
  drain();
  {
    sync::MutexLock lock(mu_);
    stop_ = true;
    sched_cv_.notify_all();
    space_cv_.notify_all();
  }
  scheduler_.join();
  for (auto& shard : shards_) {
    {
      sync::MutexLock lock(shard->mu);
      shard->stopping = true;
    }
    shard->cv.notify_all();
    shard->worker.join();
  }
  joined_ = true;
}

FarmStats EngineFarm::stats() const {
  // Taken before mu_ (documented order); makes the shards_ iteration safe
  // against a concurrent resize().
  sync::MutexLock lifecycle(lifecycle_mu_);
  FarmStats stats;
  {
    sync::MutexLock lock(mu_);
    stats.submitted = submitted_;
    stats.completed = completed_;
    stats.batches = batches_;
    stats.affinity_hits = affinity_hits_;
    stats.affinity_spills = affinity_spills_;
    stats.admission_rejected = admission_rejected_;
    stats.peak_queue_depth = peak_queue_depth_;
    stats.snapshots_taken = snapshots_taken_;
    stats.restores = restores_;
    stats.warm_recoveries = warm_recoveries_;
    stats.cold_recoveries = cold_recoveries_;
    stats.frames_migrated = frames_migrated_;
    stats.migration_pci_words = migration_pci_words_;
    stats.planned_programs = planned_programs_;
    stats.planned_words_saved = planned_words_saved_;
  }
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    sync::MutexLock lock(shard->mu);
    ShardStats s;
    s.calls = shard->calls;
    s.affinity_calls = shard->affinity_calls;
    s.busy_cycles = shard->clock_cycles;
    s.overlap_cycles_saved = shard->overlap_saved;
    s.elastic_cycles = shard->elastic_cycles;
    s.retry_pipeline_breaks = shard->retry_pipeline_breaks;
    s.peak_queue_depth = shard->peak_depth;
    s.breaker = shard->breaker;
    s.resilient = shard->resilient;
    s.session = shard->session_stats;
    stats.overlap_cycles_saved += shard->overlap_saved;
    stats.shards.push_back(std::move(s));
  }
  return stats;
}

void EngineFarm::set_scheduler_trace(core::EngineTrace* trace) {
  sync::MutexLock lock(mu_);
  scheduler_trace_ = trace;
}

// --- Elastic control -------------------------------------------------------

EngineFarm::SchedulerPause::SchedulerPause(EngineFarm& farm) : farm_(farm) {
  // Checked before parking: a shut-down farm's scheduler never parks again.
  AE_EXPECTS(!farm.joined_, "elastic operation on a farm that is shut down");
  sync::MutexLock lock(farm_.mu_);
  AE_ASSERT(!farm_.paused_, "scheduler already paused");
  farm_.paused_ = true;
  // The scheduler may currently be routing a batch (outside mu_): wait
  // until it comes back to its wait loop and parks.
  while (!farm_.scheduler_idle_) farm_.pause_cv_.wait(farm_.mu_);
}

EngineFarm::SchedulerPause::~SchedulerPause() {
  sync::MutexLock lock(farm_.mu_);
  farm_.paused_ = false;
  farm_.sched_cv_.notify_all();
}

EngineFarm::QuiescedShard::QuiescedShard(EngineFarm& farm, Shard& shard)
    : farm_(farm), shard_(shard) {
  shard.mu.lock();
  farm.wait_shard_idle(shard);
  backlog_ = std::move(shard.queue);
  shard.queue.clear();
}

EngineFarm::QuiescedShard::~QuiescedShard() {
  shard_.mu.unlock();
  farm_.requeue_front(std::move(backlog_));
}

EngineFarm::Shard& EngineFarm::shard_at(int shard_index) {
  AE_EXPECTS(shard_index >= 0 &&
                 shard_index < static_cast<int>(shards_.size()),
             "shard index out of range");
  return *shards_[static_cast<std::size_t>(shard_index)];
}

void EngineFarm::wait_shard_idle(Shard& shard) {
  while (shard.busy) shard.cv.wait(shard.mu);
}

void EngineFarm::requeue_front(std::deque<Request> backlog) {
  if (backlog.empty()) return;
  sync::MutexLock lock(mu_);
  while (!backlog.empty()) {
    pending_.push_front(std::move(backlog.back()));
    backlog.pop_back();
  }
  peak_queue_depth_ = std::max(peak_queue_depth_, pending_.size());
  sched_cv_.notify_all();
}

const core::FaultPlan& EngineFarm::configured_plan(int shard) const {
  return static_cast<std::size_t>(shard) < options_.shard_faults.size()
             ? options_.shard_faults[static_cast<std::size_t>(shard)]
             : options_.resilient.plan;
}

u64 EngineFarm::bulk_restore_cycles(u64 words) const {
  if (words == 0) return 0;
  const double wpc = core::timing_detail::words_per_cycle(options_.config);
  return core::timing_detail::ceil_div_words(static_cast<double>(words), wpc) +
         options_.config.interrupt_overhead_cycles;
}

void EngineFarm::record_elastic_event(core::TraceEvent event, i64 arg) {
  sync::MutexLock lock(mu_);
  if (scheduler_trace_ != nullptr)
    scheduler_trace_->record(dispatch_seq_, event, arg);
}

void EngineFarm::update_resident_frames(Shard& shard,
                                        const analysis::FrameHandle& a,
                                        const analysis::FrameHandle& b,
                                        const core::FrameKeys& keys) {
  const core::ResidencyTable<u64>& board = shard.session.residency();
  std::erase_if(shard.resident, [&](const auto& frame) {
    return !in_input_bank(board, frame.first);
  });
  // The call's own inputs are the only frames that can have arrived.
  if (in_input_bank(board, keys.a)) shard.resident.try_emplace(keys.a, a);
  if (b != nullptr && in_input_bank(board, keys.b))
    shard.resident.try_emplace(keys.b, b);
}

u64 EngineFarm::install_frames(Shard& shard,
                               const std::vector<ResidentFrame>& frames,
                               core::ResidencyTable<u64>& residency) {
  core::FaultInjector& injector = shard.session.injector();
  const int max_attempts =
      1 + shard.session.options().transport.max_strip_retries;
  u64 words = 0;
  for (const ResidentFrame& frame : frames) {
    const img::Image& content = *frame.content;
    const u32 want = frame_crc(content);
    bool installed = false;
    for (int attempt = 0; attempt < max_attempts && !installed; ++attempt) {
      // Stream the frame's ZBT words through the (possibly adversarial)
      // transport, CRC-checking what arrives — same integrity discipline
      // as per-strip transfers, amortized over the whole frame.
      core::Crc32 crc;
      crc.add(static_cast<u32>(content.width()));
      crc.add(static_cast<u32>(content.height()));
      for (const img::Pixel& p : content.pixels()) {
        u32 lower = p.lower_word();
        u32 upper = p.upper_word();
        injector.corrupt_restore_word(lower);
        injector.corrupt_restore_word(upper);
        crc.add(lower);
        crc.add(upper);
      }
      words += 2 * static_cast<u64>(content.pixel_count());
      if (crc.value() == want)
        installed = true;
      else
        injector.note_restore_mismatch();
    }
    if (installed) {
      shard.resident.insert_or_assign(frame.hash, frame.content);
    } else {
      // Retry budget exhausted: the board never received this frame clean.
      // It stays cold — prune it from the residency tables so the timing
      // model re-streams it on first use instead of trusting rotten banks.
      residency.evict(frame.hash);
    }
  }
  return words;
}

void EngineFarm::install_snapshot(Shard& shard, const ShardSnapshot& snapshot,
                                  bool with_breaker) {
  core::ResidencyTable<u64> residency(snapshot.residency);
  shard.resident.clear();
  const u64 words = install_frames(shard, snapshot.frames, residency);
  // Keep the content map to the input banks the residency table names.
  std::erase_if(shard.resident, [&](const auto& frame) {
    return !in_input_bank(residency, frame.first);
  });
  if (with_breaker) shard.session.restore_breaker(snapshot.breaker);
  shard.session.restore_residency(residency.snapshot());
  const u64 cost = bulk_restore_cycles(words);
  // A restore never rewinds a live clock — service between snapshot and
  // restore stays counted — and the bulk burst is priced on top.  Every
  // cycle of clock advance that did not come from serving calls lands in
  // elastic_cycles, preserving the shard accounting identity
  //   busy_cycles + overlap_saved == resilient.cycles + elastic_cycles
  // even when a snapshot fast-forwards a fresh shard's clock.
  const u64 before = shard.clock_cycles;
  shard.clock_cycles =
      std::max(shard.clock_cycles, snapshot.clock_cycles) + cost;
  shard.elastic_cycles += shard.clock_cycles - before;
  shard.breaker = shard.session.breaker();
  shard.prev_on_engine = false;  // the pipeline does not survive a restore
}

std::vector<u8> EngineFarm::snapshot_shard(int shard_index) {
  sync::MutexLock lifecycle(lifecycle_mu_);
  SchedulerPause pause(*this);
  Shard& shard = shard_at(shard_index);
  std::vector<u8> blob;
  {
    QuiescedShard quiesced(*this, shard);
    ShardSnapshot snapshot;
    snapshot.shard_index = shard_index;
    snapshot.clock_cycles = shard.clock_cycles;
    snapshot.breaker = shard.session.breaker_snapshot();
    snapshot.residency = shard.session.residency().snapshot();
    // Checkpoints carry the input-slot working set only.  The result bank
    // is transient — the next call overwrites it, and relocation rebuilds
    // it for free — so carrying its frame would inflate every restore by a
    // full frame of PCI words for state the board regenerates anyway.
    snapshot.residency.result_hash = 0;
    // `resident` is key-ordered, so the frames are too; the handles are
    // shared, not copied.
    for (const auto& [hash, content] : shard.resident)
      if (in_input_bank(shard.session.residency(), hash))
        snapshot.frames.push_back({hash, content});
    for (const Request& r : quiesced.backlog()) {
      if (r.program == nullptr) {
        snapshot.queued.push_back(r.call);
        continue;
      }
      for (const i32 c : r.program->plan.schedule)
        snapshot.queued.push_back(
            r.program->program.calls()[static_cast<std::size_t>(c)].call);
    }
    blob = serialize_snapshot(snapshot, &shard.session.injector());
    shard.last_snapshot = blob;
  }
  {
    sync::MutexLock lock(mu_);
    ++snapshots_taken_;
    if (scheduler_trace_ != nullptr)
      scheduler_trace_->record(dispatch_seq_, core::TraceEvent::SnapshotTaken,
                               shard_index);
  }
  return blob;
}

void EngineFarm::restore_shard(int shard_index, const std::vector<u8>& blob) {
  sync::MutexLock lifecycle(lifecycle_mu_);
  SchedulerPause pause(*this);
  Shard& shard = shard_at(shard_index);
  {
    // A blob rejected for any reason leaves the shard serving with its
    // previous state, and the quiesce returns its backlog regardless.
    QuiescedShard quiesced(*this, shard);
    try {
      install_snapshot(shard, parse_snapshot(blob), /*with_breaker=*/true);
    } catch (const SnapshotChecksumMismatch&) {
      shard.session.injector().note_snapshot_mismatch();
      throw;
    }
  }
  {
    sync::MutexLock lock(mu_);
    ++restores_;
    if (scheduler_trace_ != nullptr)
      scheduler_trace_->record(dispatch_seq_, core::TraceEvent::ShardRestored,
                               shard_index);
  }
}

void EngineFarm::kill_shard(int shard_index) {
  sync::MutexLock lifecycle(lifecycle_mu_);
  SchedulerPause pause(*this);
  Shard& shard = shard_at(shard_index);
  {
    QuiescedShard quiesced(*this, shard);
    // Power loss: every frame on the board is gone, and the driver stops
    // trusting the slot — the breaker opens hard (as if the failure window
    // just filled) so service continues from software fallback until
    // recover_shard() swaps a board in or the cooldown probe succeeds.
    shard.session.restore_breaker(
        {core::BreakerState::Open, options_.resilient.breaker_threshold, 0});
    shard.session.restore_residency({});
    shard.resident.clear();
    shard.breaker = shard.session.breaker();
    shard.prev_on_engine = false;
  }
  record_elastic_event(core::TraceEvent::ShardKilled, shard_index);
}

bool EngineFarm::recover_shard(int shard_index) {
  sync::MutexLock lifecycle(lifecycle_mu_);
  SchedulerPause pause(*this);
  Shard& shard = shard_at(shard_index);
  bool warm = false;
  {
    QuiescedShard quiesced(*this, shard);
    // Board swap: a healthy replacement with a clean in-call transport.
    // Host-side hazards survive the swap — snapshots can still rot at
    // rest and the restore stream itself crosses the same PCI bus — so
    // those two rates carry over from the configured plan.
    const core::FaultPlan& configured = configured_plan(shard_index);
    core::FaultPlan clean;
    clean.seed = configured.seed;
    clean.snapshot_corrupt_rate = configured.snapshot_corrupt_rate;
    clean.restore_corrupt_rate = configured.restore_corrupt_rate;
    shard.session.replace_board(clean);
    shard.resident.clear();
    if (!shard.last_snapshot.empty()) {
      try {
        // Warm restore: residency and frames come back; the breaker does
        // NOT — the replacement board's health history starts clean.
        install_snapshot(shard, parse_snapshot(shard.last_snapshot),
                         /*with_breaker=*/false);
        warm = true;
      } catch (const SnapshotChecksumMismatch&) {
        shard.session.injector().note_snapshot_mismatch();
      } catch (const SnapshotError&) {
        // A forged or foreign-version blob: the board comes back cold.
      }
    }
    shard.breaker = shard.session.breaker();
    shard.prev_on_engine = false;
  }
  {
    sync::MutexLock lock(mu_);
    if (warm) {
      ++warm_recoveries_;
      ++restores_;
    } else {
      ++cold_recoveries_;
    }
    if (scheduler_trace_ != nullptr)
      scheduler_trace_->record(dispatch_seq_, core::TraceEvent::ShardRestored,
                               shard_index);
  }
  return warm;
}

int EngineFarm::install_migrated(Shard& to, int to_index,
                                 std::vector<ResidentFrame> frames) {
  if (frames.empty()) return 0;
  int moved = 0;
  u64 words = 0;
  {
    sync::MutexLock lock(to.mu);
    wait_shard_idle(to);
    core::ResidencyTable<u64> residency = to.session.residency();
    for (ResidentFrame& frame : frames) {
      if (frame.hash == 0 || residency.holds(frame.hash)) continue;
      // Both input banks occupied: the board is full.
      if (!residency.install_free(frame.hash)) break;
      words += 2 * static_cast<u64>(frame.content->pixel_count());
      to.resident.insert_or_assign(frame.hash, std::move(frame.content));
      affinity_[frame.hash] = to_index;  // scheduler is parked: safe
      ++moved;
    }
    to.session.restore_residency(residency.snapshot());
    const u64 cost = bulk_restore_cycles(words);
    to.clock_cycles += cost;
    to.elastic_cycles += cost;
    to.prev_on_engine = false;
  }
  if (moved > 0) {
    sync::MutexLock lock(mu_);
    frames_migrated_ += moved;
    migration_pci_words_ += words;
    if (scheduler_trace_ != nullptr)
      scheduler_trace_->record(dispatch_seq_, core::TraceEvent::FramesMigrated,
                               moved);
  }
  return moved;
}

void EngineFarm::resize(int new_count) {
  AE_EXPECTS(new_count > 0, "farm needs at least one shard");
  sync::MutexLock lifecycle(lifecycle_mu_);
  SchedulerPause pause(*this);
  const int old_count = static_cast<int>(shards_.size());
  if (new_count == old_count) return;
  if (new_count > old_count) {
    shards_.reserve(static_cast<std::size_t>(new_count));
    for (int s = old_count; s < new_count; ++s) {
      shards_.push_back(make_shard(s));
      start_worker(*shards_.back());
    }
  } else {
    for (int s = old_count - 1; s >= new_count; --s) {
      Shard& dying = *shards_[static_cast<std::size_t>(s)];
      std::vector<ResidentFrame> frames;
      {
        QuiescedShard quiesced(*this, dying);
        dying.stopping = true;
        for (auto& [hash, content] : dying.resident)
          frames.push_back({hash, std::move(content)});
        dying.resident.clear();
      }
      dying.cv.notify_all();
      dying.worker.join();  // queue is empty: the worker exits immediately
      // The dying board's frames move to a surviving shard (deterministic
      // target), priced like any migration; what doesn't fit goes cold.
      install_migrated(*shards_[static_cast<std::size_t>(s % new_count)],
                       s % new_count, std::move(frames));
      shards_.pop_back();
    }
    // Routing entries still naming removed shards (frames that could not
    // migrate) must not steer traffic at a dead index.
    for (auto it = affinity_.begin(); it != affinity_.end();)
      it = it->second >= new_count ? affinity_.erase(it) : std::next(it);
  }
  options_.shards = new_count;
  record_elastic_event(core::TraceEvent::ShardCountChanged, new_count);
}

int EngineFarm::rebalance() {
  sync::MutexLock lifecycle(lifecycle_mu_);
  SchedulerPause pause(*this);
  // Rebalancing considers the whole farm, so it waits for every shard to
  // drain fully (no queued work, between calls).  The scheduler is parked
  // and holds whatever is still pending, so the drain terminates.
  for (auto& shard : shards_) {
    sync::MutexLock lock(shard->mu);
    while (shard->busy || !shard->queue.empty()) shard->cv.wait(shard->mu);
  }
  int total_moved = 0;
  for (;;) {
    // Greedy: move one frame from the frame-richest shard to the poorest.
    int rich = -1, poor = -1;
    std::size_t rich_count = 0, poor_count = ~std::size_t{0};
    for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
      Shard& shard = *shards_[static_cast<std::size_t>(s)];
      sync::MutexLock lock(shard.mu);
      const std::size_t count = shard.resident.size();
      if (rich < 0 || count > rich_count) {
        rich = s;
        rich_count = count;
      }
      if (count < poor_count) {
        poor = s;
        poor_count = count;
      }
    }
    if (rich < 0 || poor < 0 || rich == poor || rich_count < poor_count + 2)
      break;
    std::vector<ResidentFrame> one;
    {
      Shard& source = *shards_[static_cast<std::size_t>(rich)];
      sync::MutexLock lock(source.mu);
      if (source.resident.empty()) break;
      auto it = source.resident.begin();  // the smallest key
      one.push_back({it->first, std::move(it->second)});
      source.resident.erase(it);
      // Evict from the source board's residency tables too.
      core::ResidencyTable<u64> residency = source.session.residency();
      residency.evict(one.front().hash);
      source.session.restore_residency(residency.snapshot());
      source.prev_on_engine = false;
    }
    const int moved = install_migrated(
        *shards_[static_cast<std::size_t>(poor)], poor, std::move(one));
    if (moved == 0) break;  // receiver out of free banks: converged enough
    total_moved += moved;
  }
  return total_moved;
}

}  // namespace ae::serve
