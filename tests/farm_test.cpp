// EngineFarm basics (tier1): bit-exactness through the Backend interface,
// affinity routing, strip pipelining, option validation and accounting.
// References come from the interpreter (alib::execute_functional): the farm
// computes pixels on the kernel backend, so only the interpreter is an
// independent oracle.
// The heavy multi-threaded stress lives in farm_concurrency_test (tier2).
#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "addresslib/functional.hpp"
#include "analysis/planner.hpp"
#include "serve/farm.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::PixelOp;
using serve::EngineFarm;
using serve::FarmOptions;
using serve::FarmStats;

TEST(FarmOptionsTest, ValidatesShardCountAndCapacities) {
  FarmOptions bad;
  bad.shards = 0;
  EXPECT_THROW(serve::validate_farm_options(bad), InvalidArgument);
  bad = FarmOptions{};
  bad.queue_capacity = 0;
  EXPECT_THROW(serve::validate_farm_options(bad), InvalidArgument);
  bad = FarmOptions{};
  bad.max_batch = 0;
  EXPECT_THROW(serve::validate_farm_options(bad), InvalidArgument);
  bad = FarmOptions{};
  bad.shard_faults.resize(static_cast<std::size_t>(bad.shards) + 1);
  EXPECT_THROW(serve::validate_farm_options(bad), InvalidArgument);
}

TEST(FarmTest, BackendInterfaceIsBitExact) {
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();

  for (const Call& call : test::representative_intra_calls()) {
    SCOPED_TRACE(call.describe());
    test::expect_results_equal(alib::execute_functional(call, a),
                             farm.execute(call, a));
  }
  for (const Call& call : test::representative_inter_calls()) {
    SCOPED_TRACE(call.describe());
    test::expect_results_equal(alib::execute_functional(call, a, &b),
                               farm.execute(call, a, &b));
  }
}

TEST(FarmTest, AsyncSubmissionCompletesEverything) {
  FarmOptions options;
  options.shards = 3;
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  const Call call = Call::make_inter(PixelOp::AbsDiff);
  const alib::CallResult ref = alib::execute_functional(call, a, &b);

  std::vector<std::future<alib::CallResult>> futures;
  for (int i = 0; i < 24; ++i) futures.push_back(farm.submit(call, a, &b));
  for (auto& f : futures)
    test::expect_results_equal(ref, f.get());

  farm.drain();
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.submitted, 24);
  EXPECT_EQ(stats.completed, 24);
  EXPECT_GE(stats.batches, 1);
  // Every call on the same frame pair: after the first dispatch the rest
  // follow the frames to the resident shard.
  EXPECT_GT(stats.affinity_hits, 0);
}

TEST(FarmTest, AffinityRoutingReusesResidentFrames) {
  FarmOptions options;
  options.shards = 2;
  options.affinity_spill_depth = 64;  // never spill in this test
  EngineFarm farm(options);
  const img::Image x = test::small_frame(11);
  const img::Image y = test::small_frame(22);
  const Call call = Call::make_intra(PixelOp::GradientMag,
                                     alib::Neighborhood::con8());

  std::vector<std::future<alib::CallResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(farm.submit(call, x));
    futures.push_back(farm.submit(call, y));
  }
  for (auto& f : futures) f.get();

  const FarmStats stats = farm.stats();
  i64 reused = 0;
  i64 transferred = 0;
  for (const serve::ShardStats& s : stats.shards) {
    reused += s.session.inputs_reused;
    transferred += s.session.inputs_transferred;
  }
  // Each frame crosses the bus a handful of times at most (first touch per
  // shard; scheduling races may split a frame across shards early on), and
  // the bulk of the 20 calls reuse on-board content.
  EXPECT_GT(reused, 10) << "affinity routing is not keeping frames resident";
  EXPECT_LT(transferred, 10);
  EXPECT_GT(stats.affinity_hits, 0);
}

TEST(FarmTest, StripPipeliningSavesModeledCycles) {
  FarmOptions options;
  options.shards = 1;  // force back-to-back execution on one engine
  EngineFarm farm(options);
  // Content-distinct frames: no input is ever resident, so every call
  // streams its strips and the savings below are pipelining alone.
  std::vector<img::Image> frames;
  for (u64 seed = 1; seed <= 32; ++seed)
    frames.push_back(test::small_frame(seed));
  const Call call = Call::make_intra(PixelOp::Median,
                                     alib::Neighborhood::con8());

  std::vector<std::future<alib::CallResult>> futures;
  for (const img::Image& frame : frames)
    futures.push_back(farm.submit(call, frame));
  for (auto& f : futures) f.get();

  const FarmStats stats = farm.stats();
  EXPECT_GT(stats.overlap_cycles_saved, 0u)
      << "queued calls should hide their strip DMA in the previous tail";
  // The shard clock is exactly the serial sum (which the resilient layer
  // accumulates unclipped) minus the pipelining savings — overlap shortens
  // the modeled timeline, it never invents or loses cycles.
  EXPECT_EQ(stats.shards[0].busy_cycles + stats.overlap_cycles_saved,
            stats.shards[0].resilient.cycles);
}

TEST(FarmTest, RetriedCallsDoNotClaimPipelineOverlap) {
  // Regression: a call that needs a whole-call retry streams its input
  // strips more than once, but the previous call's post-input tail could
  // only hide the FIRST attempt's strips.  Crediting the surviving attempt
  // with overlap subtracts the same tail twice, deflating the shard clock
  // and the farm makespan exactly when faults make the farm slower.
  // A large pilot call keeps the single shard busy while the small calls
  // queue behind it, so pipeline continuity (`prev_on_engine`) is
  // deterministic at every call boundary instead of racing the scheduler.
  const img::Image pilot = img::make_test_frame(Size{176, 144}, 7);
  const img::Image a = test::small_frame();
  const Call call = Call::make_intra(PixelOp::Median,
                                     alib::Neighborhood::con8());
  constexpr int kSmall = 4;

  // An "inert" plan: the scripted opportunity is unreachable, so the
  // transport stays clean but the shard runs the same simulated path as
  // the faulty run below — identical interrupt sequences.
  core::FaultPlan inert;
  inert.script.push_back({core::FaultKind::LostInterrupt, u64{1} << 60});

  const auto probe_retries = [&](const core::FaultPlan& plan,
                                 core::EngineTrace* trace) {
    core::ResilientOptions probe_options;
    probe_options.plan = plan;
    core::ResilientSession probe({}, probe_options);
    if (trace != nullptr) probe.set_trace(trace);
    probe.execute(call, pilot);
    for (int i = 0; i < kSmall; ++i) probe.execute(call, a);
    return probe.stats().call_retries;
  };

  // Calibrate the script index.  The trace logs every raised interrupt but
  // only a subset pass through the injector, so the trace count is an
  // upper bound on the LostInterrupt opportunities; scan downward for the
  // last one that actually fires — losing it hangs the final call at its
  // completion interrupt, trips the watchdog, and retries the call whole.
  u64 last_opportunity = 0;
  bool calibrated = false;
  {
    core::EngineTrace trace;
    probe_retries(inert, &trace);
    const u64 upper = trace.count(core::TraceEvent::Interrupt);
    ASSERT_GT(upper, 0u);
    for (u64 k = upper; k-- > 0 && !calibrated;) {
      core::FaultPlan candidate;
      candidate.script = {{core::FaultKind::LostInterrupt, k}};
      if (probe_retries(candidate, nullptr) == 1) {
        last_opportunity = k;
        calibrated = true;
      }
    }
  }
  ASSERT_TRUE(calibrated);

  const auto run = [&](const core::FaultPlan& plan) {
    FarmOptions options;
    options.shards = 1;
    options.shard_faults = {plan};
    EngineFarm farm(options);
    std::vector<std::future<alib::CallResult>> futures;
    futures.push_back(farm.submit(call, pilot));
    for (int i = 0; i < kSmall; ++i) futures.push_back(farm.submit(call, a));
    for (auto& f : futures) f.get();
    farm.drain();
    return farm.stats();
  };

  const FarmStats clean = run(inert);
  core::FaultPlan lose_last = inert;
  lose_last.script = {{core::FaultKind::LostInterrupt, last_opportunity}};
  const FarmStats faulty = run(lose_last);

  // The last call hangs at its completion interrupt, trips the watchdog
  // and is retried whole; the retry breaks the pipeline instead of double
  // counting the previous tail.
  EXPECT_EQ(faulty.shards[0].resilient.call_retries, 1);
  EXPECT_EQ(faulty.shards[0].retry_pipeline_breaks, 1);
  EXPECT_EQ(clean.shards[0].retry_pipeline_breaks, 0);
  EXPECT_LT(faulty.overlap_cycles_saved, clean.overlap_cycles_saved);
  // The makespan accounting identity holds in both runs.
  for (const FarmStats* stats : {&clean, &faulty})
    EXPECT_EQ(stats->shards[0].busy_cycles +
                  stats->shards[0].overlap_cycles_saved,
              stats->shards[0].resilient.cycles +
                  stats->shards[0].elastic_cycles);
}

TEST(FarmTest, SegmentCallsFlowThroughTheFarm) {
  EngineFarm farm;
  const img::Image a = test::small_frame(7);
  Rng rng(42);
  const Call call = test::random_segment_call(rng, a.size());
  test::expect_results_equal(alib::execute_functional(call, a),
                             farm.execute(call, a));
}

TEST(FarmTest, MalformedCallsThrowInTheCallerContext) {
  EngineFarm farm;
  const img::Image a = test::small_frame();
  const Call inter = Call::make_inter(PixelOp::Add);
  EXPECT_THROW(farm.submit(inter, a, nullptr), InvalidArgument);
  // The farm keeps serving after a rejected submission.
  const Call intra = Call::make_intra(PixelOp::Copy,
                                      alib::Neighborhood::con0());
  test::expect_results_equal(alib::execute_functional(intra, a),
                             farm.execute(intra, a));
}

TEST(FarmTest, SchedulerTraceRecordsQueueAndOccupancy) {
  core::EngineTrace trace;
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  farm.set_scheduler_trace(&trace);
  const img::Image a = test::small_frame();
  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  std::vector<std::future<alib::CallResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(farm.submit(call, a));
  for (auto& f : futures) f.get();
  farm.set_scheduler_trace(nullptr);

  EXPECT_GT(trace.count(core::TraceEvent::QueueDepth), 0u);
  EXPECT_GT(trace.count(core::TraceEvent::BatchDispatched), 0u);
  EXPECT_GT(trace.count(core::TraceEvent::ShardOccupancy), 0u);
}

TEST(FarmTest, SubmitAfterShutdownThrows) {
  EngineFarm farm;
  const img::Image a = test::small_frame();
  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  farm.execute(call, a);
  farm.shutdown();
  EXPECT_THROW(farm.submit(call, a), InvalidArgument);
}

// Regression: shutdown() used to decide "already joined" from a racy
// joinable() read under the farm mutex, so two concurrent callers could
// both reach std::thread::join on the scheduler (undefined behavior).
// Shutdown is now serialized by a dedicated lifecycle mutex; any number of
// concurrent callers (plus the destructor) must be safe.
TEST(FarmTest, ConcurrentShutdownIsSerialized) {
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  std::vector<std::future<alib::CallResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(farm.submit(call, a));
  for (auto& f : futures) f.get();

  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&farm] { farm.shutdown(); });
  for (auto& t : callers) t.join();

  EXPECT_EQ(farm.stats().completed, 8);
  EXPECT_THROW(farm.submit(call, a), InvalidArgument);
}

// A worker counts a request's calls before it fulfils the promise, so the
// counters are exact the moment a future is ready — no drain() needed.
TEST(FarmTest, CallsAreCountedBeforeTheFutureIsReady) {
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  const Call call = Call::make_inter(PixelOp::AbsDiff);
  for (i64 i = 0; i < 500; ++i) {
    farm.execute(call, a, &b);
    const FarmStats stats = farm.stats();
    ASSERT_EQ(stats.submitted, i + 1);
    ASSERT_EQ(stats.completed, i + 1);
  }

  // A planned program is one request, but its calls still count one by one.
  analysis::CallProgram program;
  const i32 x = program.add_input(a.size(), "x");
  const i32 grad = program.add_call(
      Call::make_intra(PixelOp::GradientMag, alib::Neighborhood::con8()), x);
  program.mark_output(program.add_call(call, grad, x));
  FarmOptions planned;
  planned.shards = 2;
  planned.residency_plan = true;
  EngineFarm planned_farm(planned);
  planned_farm.execute_program(program, {a});
  const FarmStats stats = planned_farm.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.shards[0].calls + stats.shards[1].calls, 2);
  EXPECT_EQ(stats.planned_programs, 1);
}

// ---- aeplan integration: admission control ---------------------------------

TEST(FarmAdmissionTest, BudgetRejectsOverPricedCallsInTheCallerContext) {
  FarmOptions options;
  options.admission_budget_cycles = 1000;  // below any call's static upper
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const Call call = Call::make_intra(PixelOp::GradientMag,
                                     alib::Neighborhood::con8());

  try {
    farm.submit(call, a);
    FAIL() << "submit above the admission budget should throw";
  } catch (const serve::AdmissionError& error) {
    EXPECT_GT(error.predicted_upper_cycles(), error.budget_cycles());
    EXPECT_EQ(error.budget_cycles(), 1000u);
  }
  // Rejection is visible in the stats and the farm keeps serving.
  EXPECT_EQ(farm.stats().admission_rejected, 1);
  EXPECT_EQ(farm.stats().submitted, 0);
}

TEST(FarmAdmissionTest, GenerousBudgetAdmitsAndStaysBitExact) {
  FarmOptions options;
  options.admission_budget_cycles = 1'000'000'000;  // admits everything
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const Call call = Call::make_intra(PixelOp::GradientMag,
                                     alib::Neighborhood::con8());
  test::expect_results_equal(alib::execute_functional(call, a),
                             farm.execute(call, a));
  farm.drain();
  EXPECT_EQ(farm.stats().admission_rejected, 0);
  EXPECT_EQ(farm.stats().completed, 1);
}

// A planned program runs on a shard worker, but each of its calls is still
// admitted on its own: the intra call fits the budget and runs, the inter
// call does not, and the program fails with the same AdmissionError.
TEST(FarmAdmissionTest, PlannedProgramsAdmitEachCall) {
  const img::Image a = test::small_frame();
  const Call copy = Call::make_intra(PixelOp::Copy, alib::Neighborhood::con0());
  const Call diff = Call::make_inter(PixelOp::AbsDiff);  // streams two frames
  analysis::PlanOptions plan;
  const u64 budget = analysis::plan_call(copy, a.size(), plan).cycles.upper;
  ASSERT_GT(analysis::plan_call(diff, a.size(), plan).cycles.upper, budget);
  analysis::CallProgram program;
  const i32 x = program.add_input(a.size(), "x");
  program.mark_output(program.add_call(diff, program.add_call(copy, x), x));

  FarmOptions options;
  options.shards = 2;
  options.residency_plan = true;
  options.admission_budget_cycles = budget;
  EngineFarm farm(options);
  EXPECT_THROW(farm.execute_program(program, {a}), serve::AdmissionError);
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.admission_rejected, 1);
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.planned_programs, 0);
  // The shard keeps serving.
  test::expect_results_equal(alib::execute_functional(copy, a),
                             farm.execute(copy, a));
}

// An admission error is still an InvalidArgument: existing catch sites keep
// working when a budget is configured later.
TEST(FarmAdmissionTest, AdmissionErrorIsAnInvalidArgument) {
  FarmOptions options;
  options.admission_budget_cycles = 1;
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  EXPECT_THROW(farm.submit(call, a), InvalidArgument);
}

}  // namespace
}  // namespace ae
