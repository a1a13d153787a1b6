// EngineFarm under real concurrency (tier2): many client threads, shard
// failover mid-stream, shutdown while busy, stats hammering.  Every test
// holds the farm to bit-exact agreement with the serial software backend —
// scheduling order, shard count and transport faults must never leak into
// results.  Run under ThreadSanitizer via -DAE_TSAN=ON.
#include <gtest/gtest.h>

#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "addresslib/functional.hpp"
#include "serve/farm.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::PixelOp;
using serve::EngineFarm;
using serve::FarmOptions;
using serve::FarmStats;

/// One pre-generated unit of work: the call, its input frames (stable
/// storage — the farm borrows them until the future resolves) and the
/// serial software reference computed up front.
struct WorkItem {
  Call call;
  img::Image a;
  img::Image b;
  bool needs_b = false;
  alib::CallResult ref;
};

/// Builds a deterministic workload.  Frame seeds repeat (4 per size) so the
/// same content recurs across items and affinity routing has something to
/// chew on, like a video pipeline revisiting reference frames.
std::deque<WorkItem> make_workload(u64 seed, int count) {
  Rng rng(seed);
  std::deque<WorkItem> items;
  for (int i = 0; i < count; ++i) {
    WorkItem item;
    const Size size = test::random_frame_size(rng);
    item.call = test::random_any_call(rng, size, item.needs_b);
    item.a = img::make_test_frame(size, 1 + rng.bounded(4));
    item.b = img::make_test_frame(size, 101 + rng.bounded(4));
    item.ref = alib::execute_functional(item.call, item.a,
                                        item.needs_b ? &item.b : nullptr);
    items.push_back(std::move(item));
  }
  return items;
}

void submit_and_check(EngineFarm& farm, std::deque<WorkItem>& items,
                      std::size_t begin, std::size_t stride) {
  std::vector<std::pair<std::size_t, std::future<alib::CallResult>>> futures;
  for (std::size_t i = begin; i < items.size(); i += stride) {
    WorkItem& item = items[i];
    futures.emplace_back(
        i, farm.submit(item.call, item.a, item.needs_b ? &item.b : nullptr));
  }
  for (auto& [index, future] : futures) {
    SCOPED_TRACE("workload item " + std::to_string(index) + ": " +
                 items[index].call.describe());
    test::expect_results_equal(items[index].ref, future.get());
  }
}

TEST(FarmConcurrency, EightClientThreadsStayBitExact) {
  std::deque<WorkItem> items = make_workload(0xFA51, 200);
  FarmOptions options;
  options.shards = 4;
  EngineFarm farm(options);

  constexpr std::size_t kClients = 8;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back(
        [&farm, &items, c] { submit_and_check(farm, items, c, kClients); });
  for (auto& t : clients) t.join();

  farm.drain();
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.submitted, 200);
  EXPECT_EQ(stats.completed, 200);
  i64 shard_calls = 0;
  for (const serve::ShardStats& s : stats.shards) shard_calls += s.calls;
  EXPECT_EQ(shard_calls, 200);
  // Repeating frame content must pay off even with 8 clients interleaving.
  i64 reused = 0;
  for (const serve::ShardStats& s : stats.shards)
    reused += s.session.inputs_reused;
  EXPECT_GT(reused, 0);
}

TEST(FarmConcurrency, ShardFailoverMidStreamStaysBitExact) {
  // Shard 1's transport corrupts every readback word: each engine attempt
  // exhausts its re-read budget, the whole-call retry fails the same way,
  // and after two such calls shard 1's breaker opens.  The farm keeps
  // serving: shard 1 answers from its software fallback, routing prefers
  // the healthy shards, and every result stays bit-exact throughout.
  std::deque<WorkItem> items = make_workload(0xFA52, 80);
  FarmOptions options;
  options.shards = 4;
  options.resilient.max_call_retries = 1;
  options.resilient.breaker_threshold = 2;
  options.resilient.breaker_cooldown_calls = 1000;  // stay open for the test
  options.shard_faults.resize(2);                   // shard 0 stays clean
  options.shard_faults[1].readback_corrupt_rate = 1.0;

  EngineFarm farm(options);
  constexpr std::size_t kClients = 4;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back(
        [&farm, &items, c] { submit_and_check(farm, items, c, kClients); });
  for (auto& t : clients) t.join();

  farm.drain();
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.completed, 80);
  const serve::ShardStats& faulty = stats.shards[1];
  EXPECT_NE(faulty.breaker, core::BreakerState::Closed);
  EXPECT_GT(faulty.resilient.fallback_calls, 0);
  EXPECT_GT(faulty.resilient.transport_failures, 0);
  // The fault domain is the shard: the rest of the farm never fell back.
  for (const std::size_t s : {0ul, 2ul, 3ul}) {
    EXPECT_EQ(stats.shards[s].resilient.fallback_calls, 0) << "shard " << s;
    EXPECT_GT(stats.shards[s].resilient.engine_calls, 0) << "shard " << s;
  }
}

TEST(FarmConcurrency, ShutdownWhileBusyDrainsEverything) {
  std::deque<WorkItem> items = make_workload(0xFA53, 64);
  auto farm = std::make_unique<EngineFarm>();
  std::vector<std::future<alib::CallResult>> futures;
  for (WorkItem& item : items)
    futures.push_back(farm->submit(item.call, item.a,
                                   item.needs_b ? &item.b : nullptr));
  // Shutdown with the queue still full: it must drain, not drop.
  farm->shutdown();
  const FarmStats stats = farm->stats();
  EXPECT_EQ(stats.completed, 64);
  for (std::size_t i = 0; i < futures.size(); ++i)
    test::expect_results_equal(items[i].ref, futures[i].get());
  // Destroying an already-shut-down farm is a no-op.
  farm.reset();
}

TEST(FarmConcurrency, StatsSnapshotsDuringTrafficAreConsistent) {
  std::deque<WorkItem> items = make_workload(0xFA54, 60);
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);

  std::thread client([&farm, &items] { submit_and_check(farm, items, 0, 1); });
  // Hammer stats() while traffic flows; every snapshot must be internally
  // sane (TSan checks the synchronization, we check the invariants).
  for (int i = 0; i < 200; ++i) {
    const FarmStats stats = farm.stats();
    EXPECT_LE(stats.completed, stats.submitted);
    EXPECT_GE(stats.affinity_hits, 0);
    i64 shard_calls = 0;
    for (const serve::ShardStats& s : stats.shards) shard_calls += s.calls;
    EXPECT_LE(shard_calls, stats.submitted);
    std::this_thread::yield();
  }
  client.join();
  farm.drain();
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

}  // namespace
}  // namespace ae
