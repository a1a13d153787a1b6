// Elastic farm: shard checkpoint/restore, live resharding, and chaos-gated
// recovery (serve/snapshot.hpp + the EngineFarm elastic control surface).
//
// Tier split (tests/CMakeLists.txt): the snapshot wire-format property
// tests and the quick elastic-operation tests run as tier1; the chaos
// differential fuzz — hundreds of random programs racing shard kills,
// restores and live resharding, every result held bit-exact against the
// serial software reference — is tier2 (suite name contains "Chaos").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "addresslib/functional.hpp"
#include "serve/farm.hpp"
#include "serve/snapshot.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::PixelOp;
using serve::EngineFarm;
using serve::FarmOptions;
using serve::FarmStats;
using serve::ResidentFrame;
using serve::ShardSnapshot;

// The per-shard accounting identity the elastic layer must preserve: the
// shard clock is exactly the driver's serial cycle sum, minus pipelining
// savings, plus the priced elastic work (restores, migrations, snapshot
// clock fast-forwards).
void expect_shard_identity(const FarmStats& stats) {
  for (const serve::ShardStats& s : stats.shards)
    EXPECT_EQ(s.busy_cycles + s.overlap_cycles_saved,
              s.resilient.cycles + s.elastic_cycles);
}

// A serialized one-frame snapshot whose frame declares `width` x `height`
// while carrying the original 24x18 payload, re-checksummed so the parser
// gets past the CRC: the forged dimensions are all that is wrong with it.
std::vector<u8> forged_dimension_blob(i32 width, i32 height) {
  ShardSnapshot snapshot;
  const img::Image frame = img::make_test_frame(Size{24, 18}, 5);
  snapshot.frames.push_back({core::frame_content_hash(frame),
                             std::make_shared<const img::Image>(frame)});
  std::vector<u8> blob = serve::serialize_snapshot(snapshot);
  // Header (16) + shard index, clock, breaker (21) + residency (50) +
  // frame count (4) + frame key (8): the frame's width, then its height.
  const std::size_t dims = 16 + 21 + 50 + 4 + 8;
  const auto put = [&](std::size_t at, u32 v) {
    for (std::size_t i = 0; i < 4; ++i)
      blob[at + i] = static_cast<u8>(v >> (8 * i));
  };
  const auto get = [&](std::size_t at) {
    u32 v = 0;
    for (std::size_t i = 0; i < 4; ++i)
      v |= static_cast<u32>(blob[at + i]) << (8 * i);
    return v;
  };
  EXPECT_EQ(get(dims), 24u);
  EXPECT_EQ(get(dims + 4), 18u);
  put(dims, static_cast<u32>(width));
  put(dims + 4, static_cast<u32>(height));
  // The payload CRC: little-endian words, the tail zero-padded.
  const std::size_t payload_end = blob.size() - 4;
  core::Crc32 crc;
  for (std::size_t i = 16; i < payload_end; i += 4) {
    u32 word = 0;
    for (std::size_t b = 0; b < 4 && i + b < payload_end; ++b)
      word |= static_cast<u32>(blob[i + b]) << (8 * b);
    crc.add(word);
  }
  put(payload_end, crc.value());
  return blob;
}

ShardSnapshot sample_snapshot(Rng& rng) {
  ShardSnapshot s;
  s.shard_index = 3;
  s.clock_cycles = 123'456'789;
  s.breaker = {core::BreakerState::HalfOpen, 2, 5};
  const img::Image f0 = img::make_test_frame(Size{24, 18}, 5);
  const img::Image f1 = img::make_test_frame(Size{48, 32}, 6);
  const u64 k0 = core::frame_content_hash(f0);
  const u64 k1 = core::frame_content_hash(f1);
  s.residency.input_slots[0] = {k0, 7, false};
  s.residency.input_slots[1] = {k1, 9, true};
  s.residency.result_hash = 0xCCCC;
  s.residency.use_clock = 11;
  s.frames.push_back({k0, std::make_shared<const img::Image>(f0)});
  s.frames.push_back({k1, std::make_shared<const img::Image>(f1)});
  for (int i = 0; i < 6; ++i) {
    bool needs_b = false;
    s.queued.push_back(test::random_any_call(rng, Size{48, 32}, needs_b));
  }
  return s;
}

// --- Snapshot wire format (property tests) ---------------------------------

TEST(SnapshotFormatTest, RoundTripIsIdentity) {
  Rng rng(0x51A9u);
  const ShardSnapshot original = sample_snapshot(rng);
  const std::vector<u8> blob = serve::serialize_snapshot(original);

  const ShardSnapshot parsed = serve::parse_snapshot(blob);
  EXPECT_EQ(parsed.shard_index, original.shard_index);
  EXPECT_EQ(parsed.clock_cycles, original.clock_cycles);
  EXPECT_EQ(parsed.breaker.state, original.breaker.state);
  EXPECT_EQ(parsed.breaker.consecutive_failed_calls,
            original.breaker.consecutive_failed_calls);
  EXPECT_EQ(parsed.breaker.cooldown_used, original.breaker.cooldown_used);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed.residency.input_slots[i].hash,
              original.residency.input_slots[i].hash);
    EXPECT_EQ(parsed.residency.input_slots[i].last_use,
              original.residency.input_slots[i].last_use);
    EXPECT_EQ(parsed.residency.input_slots[i].transient,
              original.residency.input_slots[i].transient);
  }
  EXPECT_EQ(parsed.residency.result_hash, original.residency.result_hash);
  EXPECT_EQ(parsed.residency.use_clock, original.residency.use_clock);
  ASSERT_EQ(parsed.frames.size(), original.frames.size());
  for (std::size_t i = 0; i < parsed.frames.size(); ++i) {
    EXPECT_EQ(parsed.frames[i].hash, original.frames[i].hash);
    test::expect_images_equal(*original.frames[i].content,
                              *parsed.frames[i].content);
  }
  ASSERT_EQ(parsed.queued.size(), original.queued.size());
  // Serialize-of-parse reproduces the exact bytes: nothing in any call or
  // frame field is lossy, reordered or defaulted.
  EXPECT_EQ(serve::serialize_snapshot(parsed), blob);
}

TEST(SnapshotFormatTest, DegenerateEmptySnapshotRoundTrips) {
  const ShardSnapshot empty;
  const std::vector<u8> blob = serve::serialize_snapshot(empty);
  const ShardSnapshot parsed = serve::parse_snapshot(blob);
  EXPECT_EQ(parsed.frames.size(), 0u);
  EXPECT_EQ(parsed.queued.size(), 0u);
  EXPECT_EQ(parsed.clock_cycles, 0u);
  EXPECT_EQ(serve::serialize_snapshot(parsed), blob);
}

TEST(SnapshotFormatTest, SingleBitCorruptionAnywhereIsRejected) {
  Rng rng(0x51AAu);
  const std::vector<u8> blob =
      serve::serialize_snapshot(sample_snapshot(rng));
  // Sample byte positions across the whole blob (payload, framing fields
  // and the CRC trailer all included); flip one bit at each.
  const std::size_t step = std::max<std::size_t>(1, blob.size() / 64);
  for (std::size_t at = 0; at < blob.size(); at += step) {
    if (at == 4 || at == 5 || at == 6 || at == 7) continue;  // version field
    std::vector<u8> rotten = blob;
    rotten[at] ^= static_cast<u8>(1u << (at % 8));
    EXPECT_THROW(serve::parse_snapshot(rotten), serve::SnapshotCorruption)
        << "bit flip at byte " << at << " was not detected";
  }
}

TEST(SnapshotFormatTest, TruncationAndBadFramingAreRejected) {
  Rng rng(0x51ABu);
  const std::vector<u8> blob =
      serve::serialize_snapshot(sample_snapshot(rng));
  std::vector<u8> truncated = blob;
  truncated.pop_back();
  EXPECT_THROW(serve::parse_snapshot(truncated), serve::SnapshotCorruption);
  EXPECT_THROW(serve::parse_snapshot(std::vector<u8>{}),
               serve::SnapshotCorruption);
  std::vector<u8> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(serve::parse_snapshot(bad_magic), serve::SnapshotCorruption);
}

TEST(SnapshotFormatTest, VersionMismatchIsItsOwnError) {
  Rng rng(0x51ACu);
  std::vector<u8> blob = serve::serialize_snapshot(sample_snapshot(rng));
  blob[4] = static_cast<u8>(serve::kSnapshotVersion + 1);
  try {
    serve::parse_snapshot(blob);
    FAIL() << "future-versioned blob was accepted";
  } catch (const serve::SnapshotVersionMismatch& e) {
    EXPECT_EQ(e.found(), serve::kSnapshotVersion + 1);
    EXPECT_EQ(e.expected(), serve::kSnapshotVersion);
  }
}

// The residency fields are restored as the board's LRU state, so a clock
// about to wrap (the next stamps would restart at 0 and invert LRU order for
// the shard's life) or a slot used after the clock is rejected even when the
// checksum is valid.
TEST(SnapshotFormatTest, InconsistentResidencyClockIsCorruption) {
  Rng rng(0x51AEu);
  ShardSnapshot wrapping = sample_snapshot(rng);
  wrapping.residency.use_clock = ~u64{0};
  EXPECT_THROW(serve::parse_snapshot(serve::serialize_snapshot(wrapping)),
               serve::SnapshotCorruption);
  ShardSnapshot future_slot = sample_snapshot(rng);
  future_slot.residency.input_slots[1].last_use =
      future_slot.residency.use_clock + 1;
  EXPECT_THROW(serve::parse_snapshot(serve::serialize_snapshot(future_slot)),
               serve::SnapshotCorruption);
}

// A resident frame's key steers affinity routing after a restore, so a key
// that is not its content's own is rejected even under a valid checksum.
// Version 1 blobs carry keys of the previous hash and are refused whole.
TEST(SnapshotFormatTest, ForgedFrameKeyIsCorruption) {
  Rng rng(0x51AFu);
  ShardSnapshot forged = sample_snapshot(rng);
  forged.frames[1].hash ^= 1;
  try {
    serve::parse_snapshot(serve::serialize_snapshot(forged));
    FAIL() << "forged resident frame key was accepted";
  } catch (const serve::SnapshotCorruption& e) {
    EXPECT_NE(std::string(e.what()).find("resident frame key"),
              std::string::npos)
        << e.what();
  }
  std::vector<u8> v1 = serve::serialize_snapshot(sample_snapshot(rng));
  v1[4] = 1;
  EXPECT_THROW(serve::parse_snapshot(v1), serve::SnapshotVersionMismatch);
}

// Frame dimensions are checked against the remaining payload before the
// frame is allocated, so forged dimensions under a valid checksum are
// corruption, never an allocator failure or a large allocation.
TEST(SnapshotFormatTest, ForgedFrameDimensionsAreCorruption) {
  // The unforged blob parses: the re-checksumming below is faithful.
  EXPECT_EQ(serve::parse_snapshot(forged_dimension_blob(24, 18)).frames.size(),
            1u);
  const i32 int_max = std::numeric_limits<i32>::max();
  for (const auto& [width, height] :
       {std::pair{int_max, int_max}, std::pair{4000, 4000}}) {
    try {
      serve::parse_snapshot(forged_dimension_blob(width, height));
      FAIL() << width << "x" << height << " frame was accepted";
    } catch (const serve::SnapshotCorruption& e) {
      EXPECT_NE(std::string(e.what()).find("frame dimensions"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SnapshotFormatTest, InjectorRotIsCountedAndDetected) {
  Rng rng(0x51ADu);
  core::FaultPlan plan;
  plan.snapshot_corrupt_rate = 1.0;
  core::FaultInjector injector(plan);
  const std::vector<u8> blob =
      serve::serialize_snapshot(sample_snapshot(rng), &injector);
  EXPECT_EQ(injector.counters().snapshots_corrupted, 1u);
  EXPECT_THROW(serve::parse_snapshot(blob), serve::SnapshotChecksumMismatch);
}

// --- Elastic operations (tier1, quick) -------------------------------------

TEST(ElasticFarmTest, WarmRecoveryRestoresResidencyAfterKill) {
  FarmOptions options;
  options.shards = 1;
  EngineFarm farm(options);
  const img::Image x = test::small_frame(7);
  const Call call = Call::make_intra(PixelOp::GradientMag,
                                     alib::Neighborhood::con8());
  const alib::CallResult ref = alib::execute_functional(call, x);

  test::expect_results_equal(ref, farm.execute(call, x));
  test::expect_results_equal(ref, farm.execute(call, x));  // x now resident
  EXPECT_GT(farm.stats().shards[0].session.inputs_reused, 0);

  const std::vector<u8> blob = farm.snapshot_shard(0);
  EXPECT_FALSE(blob.empty());
  farm.kill_shard(0);
  // The dead board still answers — from software fallback, bit-exact.
  test::expect_results_equal(ref, farm.execute(call, x));
  const FarmStats dead = farm.stats();
  EXPECT_EQ(dead.shards[0].breaker, core::BreakerState::Open);
  EXPECT_GT(dead.shards[0].resilient.fallback_calls, 0);

  EXPECT_TRUE(farm.recover_shard(0));
  const i64 reused_before = farm.stats().shards[0].session.inputs_reused;
  test::expect_results_equal(ref, farm.execute(call, x));
  const FarmStats after = farm.stats();
  EXPECT_GT(after.shards[0].session.inputs_reused, reused_before)
      << "warm recovery should bring the frame's residency back";
  EXPECT_EQ(after.shards[0].breaker, core::BreakerState::Closed);
  EXPECT_EQ(after.snapshots_taken, 1);
  EXPECT_EQ(after.warm_recoveries, 1);
  EXPECT_EQ(after.restores, 1);
  EXPECT_GT(after.shards[0].elastic_cycles, 0u);
  expect_shard_identity(after);
}

TEST(ElasticFarmTest, RecoveryWithoutASnapshotComesUpCold) {
  FarmOptions options;
  options.shards = 1;
  EngineFarm farm(options);
  const img::Image x = test::small_frame(8);
  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  farm.execute(call, x);
  farm.kill_shard(0);
  EXPECT_FALSE(farm.recover_shard(0));
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.cold_recoveries, 1);
  EXPECT_EQ(stats.warm_recoveries, 0);
  EXPECT_EQ(stats.restores, 0);
  EXPECT_EQ(stats.shards[0].breaker, core::BreakerState::Closed);
}

TEST(ElasticFarmTest, ElasticChurnUnderLoadDropsNoAcceptedWork) {
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  const img::Image a = test::small_frame();
  const img::Image b = test::small_frame_b();
  const Call call = Call::make_inter(PixelOp::AbsDiff);
  const alib::CallResult ref = alib::execute_functional(call, a, &b);

  std::vector<std::future<alib::CallResult>> futures;
  for (int i = 0; i < 40; ++i) futures.push_back(farm.submit(call, a, &b));
  // Elastic churn while the backlog is live: every queued-but-unstarted
  // request must survive each quiesce/steal/requeue cycle.
  const std::vector<u8> blob = farm.snapshot_shard(0);
  farm.restore_shard(0, blob);
  farm.kill_shard(1);
  farm.recover_shard(1);
  for (auto& f : futures) test::expect_results_equal(ref, f.get());
  farm.drain();

  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.submitted, 40);
  EXPECT_EQ(stats.completed, 40);
  EXPECT_EQ(stats.snapshots_taken, 1);
  EXPECT_EQ(stats.restores, 1);     // the explicit restore; recovery was cold
  EXPECT_EQ(stats.cold_recoveries, 1);
  expect_shard_identity(stats);
}

TEST(ElasticFarmTest, ResizeUnderLoadStaysBitExact) {
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  const img::Image x = test::small_frame(3);
  const img::Image y = test::small_frame_b(4);
  const Call call = Call::make_intra(PixelOp::GradientMag,
                                     alib::Neighborhood::con8());
  const alib::CallResult ref_x = alib::execute_functional(call, x);
  const alib::CallResult ref_y = alib::execute_functional(call, y);

  std::vector<std::future<alib::CallResult>> futures;
  const auto wave = [&] {
    for (int i = 0; i < 6; ++i) {
      futures.push_back(farm.submit(call, x));
      futures.push_back(farm.submit(call, y));
    }
  };
  wave();
  farm.resize(4);
  EXPECT_EQ(farm.shard_count(), 4);
  wave();
  farm.resize(1);
  EXPECT_EQ(farm.shard_count(), 1);
  wave();
  for (std::size_t i = 0; i < futures.size(); ++i)
    test::expect_results_equal(i % 2 == 0 ? ref_x : ref_y, futures[i].get());
  farm.drain();

  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.submitted, 36);
  EXPECT_EQ(stats.completed, 36);
  EXPECT_EQ(stats.shards.size(), 1u);
  expect_shard_identity(stats);
}

TEST(ElasticFarmTest, RebalanceMigratesResidentFramesToFreshShards) {
  FarmOptions options;
  options.shards = 1;
  EngineFarm farm(options);
  const img::Image x = test::small_frame(5);
  const img::Image y = test::small_frame_b(6);
  const Call call = Call::make_intra(PixelOp::GradientMag,
                                     alib::Neighborhood::con8());
  farm.execute(call, x);
  farm.execute(call, y);  // shard 0 now holds several resident frames

  farm.resize(2);         // shard 1 arrives empty
  const int moved = farm.rebalance();
  EXPECT_GT(moved, 0);
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.frames_migrated, moved);
  EXPECT_GT(stats.migration_pci_words, 0u);
  EXPECT_GT(stats.shards[1].elastic_cycles, 0u);
  expect_shard_identity(stats);

  // The farm still answers bit-exactly for both frames after migration.
  test::expect_results_equal(alib::execute_functional(call, x),
                             farm.execute(call, x));
  test::expect_results_equal(alib::execute_functional(call, y),
                             farm.execute(call, y));
}

TEST(ElasticFarmTest, RestoreRejectsRottenBlobAndKeepsServing) {
  FarmOptions options;
  options.shards = 1;
  core::FaultPlan rot;
  rot.snapshot_corrupt_rate = 1.0;  // every snapshot decays at rest
  options.shard_faults = {rot};
  EngineFarm farm(options);
  const img::Image x = test::small_frame(9);
  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  test::expect_results_equal(alib::execute_functional(call, x),
                             farm.execute(call, x));

  const std::vector<u8> blob = farm.snapshot_shard(0);
  EXPECT_THROW(farm.restore_shard(0, blob), serve::SnapshotCorruption);
  // Rejecting the blob left the shard serving with its previous state.
  test::expect_results_equal(alib::execute_functional(call, x),
                             farm.execute(call, x));
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.snapshots_taken, 1);
  EXPECT_EQ(stats.restores, 0);
  EXPECT_EQ(stats.shards[0].resilient.detections.snapshot_checksum_mismatches,
            1u);
}

// A restore that fails — here on a hostile blob with a valid checksum —
// still returns the quiesced shard's backlog to the farm queue: every
// accepted call completes bit-exactly, drain() returns, and the shard keeps
// serving.
TEST(ElasticFarmTest, RestoreOfHostileBlobDropsNoAcceptedWork) {
  FarmOptions options;
  options.shards = 1;
  EngineFarm farm(options);
  // QCIF frames: each call runs long enough that most of the 64 are still
  // queued on the shard when the restore quiesces it.
  const img::Image a = img::make_test_frame(Size{176, 144}, 13);
  const img::Image b = img::make_test_frame(Size{176, 144}, 14);
  const Call call = Call::make_inter(PixelOp::AbsDiff);
  const alib::CallResult ref = alib::execute_functional(call, a, &b);

  std::vector<std::future<alib::CallResult>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(farm.submit(call, a, &b));
  const i32 int_max = std::numeric_limits<i32>::max();
  EXPECT_THROW(farm.restore_shard(0, forged_dimension_blob(int_max, int_max)),
               serve::SnapshotCorruption);

  // Watchdog first: a dropped request would leave drain() (and the farm's
  // destructor) waiting forever, so a hang fails the binary instead.
  auto drained = std::async(std::launch::async, [&farm] { farm.drain(); });
  if (drained.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "drain() did not return: accepted work was dropped";
    std::abort();
  }
  for (auto& f : futures) test::expect_results_equal(ref, f.get());
  test::expect_results_equal(ref, farm.execute(call, a, &b));
  // The counters are read after drain(), as every other farm test does.
  farm.drain();

  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.submitted, 65);
  EXPECT_EQ(stats.completed, 65);
  EXPECT_EQ(stats.restores, 0);
  // The blob's checksum is valid: a forged blob is not bit rot.
  EXPECT_EQ(stats.shards[0].resilient.detections.snapshot_checksum_mismatches,
            0u);
  expect_shard_identity(stats);
}

TEST(ElasticFarmTest, RestoreTimeTransportFaultsDegradeFramesToCold) {
  FarmOptions options;
  options.shards = 1;
  core::FaultPlan noisy;
  noisy.restore_corrupt_rate = 1.0;  // every restored word flips in flight
  options.shard_faults = {noisy};
  EngineFarm farm(options);
  const img::Image x = test::small_frame(10);

  // A hand-built snapshot with one resident frame: the restore streams it
  // through the shard's adversarial transport, every attempt fails its
  // frame CRC, and the frame degrades to cold instead of poisoning the
  // board — the restore itself still succeeds.
  ShardSnapshot snapshot;
  const u64 hash = core::frame_content_hash(x);
  snapshot.residency.input_slots[0] = {hash, 1, false};
  snapshot.residency.use_clock = 1;
  snapshot.frames.push_back({hash, std::make_shared<const img::Image>(x)});
  farm.restore_shard(0, serve::serialize_snapshot(snapshot));

  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  test::expect_results_equal(alib::execute_functional(call, x),
                             farm.execute(call, x));
  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.restores, 1);
  EXPECT_GT(stats.shards[0].resilient.detections.restore_crc_mismatches, 0u);
  EXPECT_GT(stats.shards[0].resilient.faults.restore_words_corrupted, 0u);
  EXPECT_GT(stats.shards[0].elastic_cycles, 0u);  // retries are still priced
  expect_shard_identity(stats);
}

TEST(ElasticFarmTest, SchedulerTraceRecordsElasticEvents) {
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  core::EngineTrace trace;
  farm.set_scheduler_trace(&trace);
  const img::Image x = test::small_frame(12);
  const Call call = Call::make_intra(PixelOp::Copy,
                                     alib::Neighborhood::con0());
  farm.execute(call, x);

  farm.snapshot_shard(0);
  farm.kill_shard(0);
  farm.recover_shard(0);
  farm.resize(3);
  farm.resize(1);
  farm.rebalance();

  EXPECT_EQ(trace.count(core::TraceEvent::SnapshotTaken), 1u);
  EXPECT_EQ(trace.count(core::TraceEvent::ShardKilled), 1u);
  EXPECT_EQ(trace.count(core::TraceEvent::ShardRestored), 1u);
  EXPECT_EQ(trace.count(core::TraceEvent::ShardCountChanged), 2u);
  farm.set_scheduler_trace(nullptr);
}

TEST(ElasticFarmTest, ElasticOperationsValidateShardIndices) {
  FarmOptions options;
  options.shards = 2;
  EngineFarm farm(options);
  EXPECT_THROW(farm.snapshot_shard(-1), InvalidArgument);
  EXPECT_THROW(farm.kill_shard(2), InvalidArgument);
  EXPECT_THROW(farm.recover_shard(99), InvalidArgument);
  EXPECT_THROW(farm.resize(0), InvalidArgument);
}

// A snapshot is a pure function of shard state: its frames come in
// ascending key order whatever the keys, and two farms fed the same calls
// serialize the same bytes.
TEST(ElasticFarmTest, SnapshotIsAPureFunctionOfShardState) {
  const Call call = Call::make_inter(PixelOp::AbsDiff);
  for (u64 seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const img::Image a = test::small_frame(2 * seed);
    const img::Image b = test::small_frame_b(2 * seed + 1);
    const auto snapshot = [&] {
      FarmOptions options;
      options.shards = 1;
      EngineFarm farm(options);
      farm.execute(call, a, &b);
      farm.execute(call, b, &a);
      return farm.snapshot_shard(0);
    };
    const std::vector<u8> blob = snapshot();
    EXPECT_EQ(blob, snapshot());
    const ShardSnapshot parsed = serve::parse_snapshot(blob);
    ASSERT_EQ(parsed.frames.size(), 2u);
    EXPECT_LT(parsed.frames[0].hash, parsed.frames[1].hash);
  }
}

// Frames are borrowed only for the life of their request.  The caller's
// images die, and their memory is reused, right after the farm answers.
// The frame still in an input bank was copied when the request ended, so a
// snapshot of it passes parse_snapshot (which re-keys every frame against
// its content) and a restore still serves bit-exactly.  Under ASan a frame
// still borrowed past its request is a use-after-free.
void expect_resident_frames_outlive_caller(
    EngineFarm& farm, const std::function<void(const img::Image&,
                                               const img::Image&)>& run,
    const std::function<void(const img::Image&, const img::Image&)>& check) {
  const img::Image a = test::small_frame(31);
  const img::Image b = test::small_frame_b(32);
  {
    auto caller_a = std::make_unique<img::Image>(a);
    auto caller_b = std::make_unique<img::Image>(b);
    run(*caller_a, *caller_b);
  }
  // Likely to land where the caller's frames were.
  const img::Image scribble_a = test::small_frame(33);
  const img::Image scribble_b = test::small_frame_b(34);
  const std::vector<u8> blob = farm.snapshot_shard(0);
  const ShardSnapshot parsed = serve::parse_snapshot(blob);
  EXPECT_FALSE(parsed.frames.empty());
  farm.restore_shard(0, blob);
  check(a, b);
  expect_shard_identity(farm.stats());
}

TEST(ElasticFarmTest, HandSubmittedFramesOutliveTheirCaller) {
  FarmOptions options;
  options.shards = 1;
  EngineFarm farm(options);
  const Call call = Call::make_inter(PixelOp::AbsDiff);
  expect_resident_frames_outlive_caller(
      farm,
      [&](const img::Image& a, const img::Image& b) {
        test::expect_results_equal(alib::execute_functional(call, a, &b),
                                   farm.submit(call, a, &b).get());
      },
      [&](const img::Image& a, const img::Image& b) {
        const i64 reused = farm.stats().shards[0].session.inputs_reused;
        test::expect_results_equal(alib::execute_functional(call, a, &b),
                                   farm.execute(call, a, &b));
        EXPECT_EQ(farm.stats().shards[0].session.inputs_reused, reused + 2)
            << "the restored frames should be reused";
      });
}

TEST(ElasticFarmTest, PlannedProgramFramesOutliveTheirCaller) {
  // The last call reads the external input `y`, which is still in an input
  // bank when the program ends.
  analysis::CallProgram program;
  const Size size = test::small_frame().size();
  const i32 x = program.add_input(size, "x");
  const i32 y = program.add_input(size, "y");
  const i32 grad = program.add_call(
      Call::make_intra(PixelOp::GradientMag, alib::Neighborhood::con8()), x);
  program.mark_output(
      program.add_call(Call::make_inter(PixelOp::AbsDiff), grad, y));
  FarmOptions options;
  options.shards = 1;
  options.residency_plan = true;
  EngineFarm farm(options);
  test::InterpreterBackend reference;
  const auto run = [&](const img::Image& a, const img::Image& b) {
    const std::vector<img::Image> inputs = {a, b};
    test::expect_runs_equal(analysis::run_program(program, reference, inputs),
                            farm.execute_program(program, inputs).run);
  };
  expect_resident_frames_outlive_caller(farm, run, run);
}

// --- Chaos gate (tier2) ----------------------------------------------------

// Differential fuzz with seeded chaos: hundreds of random programs flow
// through a farm whose shards are snapshotted, killed, warm/cold recovered,
// restored from (possibly rotten) blobs, resized and rebalanced mid-stream,
// with one shard on an adversarial transport throughout.  The gate: every
// accepted program completes (zero drops) and every result is bit-exact
// against the serial software reference.
TEST(ElasticChaosTest, DifferentialFuzzSurvivesShardChurn) {
  Rng rng(0xE1A57Cu);
  FarmOptions options;
  options.shards = 3;
  core::FaultPlan faulty;
  faulty.seed = 99;
  faulty.dma_corrupt_rate = 0.002;
  faulty.readback_corrupt_rate = 0.001;
  faulty.zbt_flip_rate = 0.0005;
  faulty.snapshot_corrupt_rate = 0.05;
  faulty.restore_corrupt_rate = 0.0005;
  options.shard_faults = {core::FaultPlan{}, faulty};  // shard 1 is the bad board
  EngineFarm farm(options);

  // A small pool of recurring frames keeps residency, affinity and
  // snapshot content live across the run.
  std::vector<img::Image> pool;
  for (u64 i = 0; i < 6; ++i)
    pool.push_back(img::make_test_frame(Size{48, 32}, 100 + i));

  constexpr int kPrograms = 240;
  struct Pending {
    std::future<alib::CallResult> future;
    alib::CallResult ref;
  };
  std::deque<Pending> pending;
  const auto settle = [&](Pending& p) {
    test::expect_results_equal(p.ref, p.future.get());
  };

  i64 snapshots = 0, recovers = 0, restores_applied = 0, corrupt_rejects = 0;
  std::vector<u8> last_blob;
  int last_blob_shard = -1;
  for (int i = 0; i < kPrograms; ++i) {
    bool needs_b = false;
    const Call call = test::random_any_call(rng, Size{48, 32}, needs_b);
    const img::Image& a = pool[rng.bounded(static_cast<u32>(pool.size()))];
    const img::Image* b =
        needs_b ? &pool[rng.bounded(static_cast<u32>(pool.size()))] : nullptr;
    Pending p;
    p.ref = alib::execute_functional(call, a, b);
    p.future = farm.submit(call, a, b);
    pending.push_back(std::move(p));

    if (rng.chance(0.12)) {
      const int shard =
          static_cast<int>(rng.bounded(static_cast<u32>(farm.shard_count())));
      switch (rng.bounded(6)) {
        case 0:
          last_blob = farm.snapshot_shard(shard);
          last_blob_shard = shard;
          ++snapshots;
          break;
        case 1:
          farm.kill_shard(shard);
          break;
        case 2:
          farm.recover_shard(shard);
          ++recovers;
          break;
        case 3:
          if (last_blob_shard >= 0 && last_blob_shard < farm.shard_count()) {
            try {
              farm.restore_shard(last_blob_shard, last_blob);
              ++restores_applied;
            } catch (const serve::SnapshotCorruption&) {
              ++corrupt_rejects;  // rot at rest, detected — expected
            }
          }
          break;
        case 4:
          farm.resize(1 + static_cast<int>(rng.bounded(4)));
          break;
        case 5:
          farm.rebalance();
          break;
      }
    }
    while (pending.size() > 64) {
      settle(pending.front());
      pending.pop_front();
    }
  }
  while (!pending.empty()) {
    settle(pending.front());
    pending.pop_front();
  }
  farm.drain();

  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.submitted, kPrograms);
  EXPECT_EQ(stats.completed, kPrograms) << "accepted work was dropped";
  EXPECT_EQ(stats.snapshots_taken, snapshots);
  EXPECT_EQ(stats.warm_recoveries + stats.cold_recoveries, recovers);
  EXPECT_EQ(stats.restores, restores_applied + stats.warm_recoveries);
  expect_shard_identity(stats);
  // The chaos schedule must actually have exercised the machinery.
  EXPECT_GT(snapshots, 0);
  EXPECT_GT(recovers, 0);
}

// Planned programs under chaos: two client threads run fusion-biased
// programs through a residency-planned, optimizing farm — each program one
// request on its home shard — while the main thread hand-submits calls and
// snapshots, kills, recovers, restores, resizes and rebalances shards.
// Every program output and every call stays bit-exact against the
// interpreter, no accepted work is dropped, and the shard clocks keep
// their accounting identity.
TEST(ElasticChaosTest, PlannedProgramsSurviveShardChurn) {
  FarmOptions options;
  options.shards = 3;
  options.residency_plan = true;
  options.optimize_on_submit = true;
  core::FaultPlan faulty;
  faulty.seed = 7;
  faulty.dma_corrupt_rate = 0.002;
  faulty.readback_corrupt_rate = 0.001;
  faulty.snapshot_corrupt_rate = 0.05;
  faulty.restore_corrupt_rate = 0.0005;
  options.shard_faults = {core::FaultPlan{}, faulty};
  EngineFarm farm(options);

  constexpr int kClients = 2;
  constexpr int kProgramsPerClient = 40;
  std::vector<i64> program_calls(kClients, 0);
  std::atomic<int> clients_done{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&farm, &program_calls, &clients_done, c] {
      Rng rng(0xC1A05u + static_cast<u64>(c));
      test::InterpreterBackend reference;
      for (int i = 0; i < kProgramsPerClient; ++i) {
        const analysis::CallProgram program =
            test::random_fusion_biased_program(rng);
        const std::vector<img::Image> inputs =
            test::external_inputs(program, rng);
        SCOPED_TRACE("client " + std::to_string(c) + " program " +
                     std::to_string(i));
        const serve::ProgramExecution exec =
            farm.execute_program(program, inputs);
        test::expect_runs_equal(
            analysis::run_program(program, reference, inputs), exec.run);
        program_calls[static_cast<std::size_t>(c)] +=
            static_cast<i64>(exec.residency.schedule.size());
      }
      ++clients_done;
    });
  }

  Rng rng(0xE1A57Du);
  std::vector<img::Image> pool;
  for (u64 i = 0; i < 4; ++i)
    pool.push_back(img::make_test_frame(Size{48, 32}, 200 + i));
  struct Pending {
    std::future<alib::CallResult> future;
    alib::CallResult ref;
  };
  std::deque<Pending> pending;
  // The churn runs until every client is done, so it overlaps them all.
  constexpr int kMinCalls = 120;
  i64 calls = 0;
  std::vector<u8> last_blob;
  int last_blob_shard = -1;
  for (; calls < kMinCalls || clients_done < kClients; ++calls) {
    bool needs_b = false;
    const Call call = test::random_any_call(rng, Size{48, 32}, needs_b);
    const img::Image& a = pool[rng.bounded(static_cast<u32>(pool.size()))];
    const img::Image* b =
        needs_b ? &pool[rng.bounded(static_cast<u32>(pool.size()))] : nullptr;
    Pending p;
    p.ref = alib::execute_functional(call, a, b);
    p.future = farm.submit(call, a, b);
    pending.push_back(std::move(p));
    if (rng.chance(0.25)) {
      const int shard =
          static_cast<int>(rng.bounded(static_cast<u32>(farm.shard_count())));
      switch (rng.bounded(6)) {
        case 0:
          last_blob = farm.snapshot_shard(shard);
          last_blob_shard = shard;
          break;
        case 1:
          farm.kill_shard(shard);
          break;
        case 2:
          farm.recover_shard(shard);
          break;
        case 3:
          if (last_blob_shard >= 0 && last_blob_shard < farm.shard_count()) {
            try {
              farm.restore_shard(last_blob_shard, last_blob);
            } catch (const serve::SnapshotCorruption&) {
              // rot at rest, detected — expected
            }
          }
          break;
        case 4:
          farm.resize(1 + static_cast<int>(rng.bounded(4)));
          break;
        case 5:
          farm.rebalance();
          break;
      }
    }
    while (pending.size() > 16) {
      test::expect_results_equal(pending.front().ref,
                                 pending.front().future.get());
      pending.pop_front();
    }
  }
  for (Pending& p : pending) test::expect_results_equal(p.ref, p.future.get());
  for (std::thread& t : clients) t.join();
  farm.drain();

  const FarmStats stats = farm.stats();
  EXPECT_EQ(stats.submitted, stats.completed) << "accepted work was dropped";
  EXPECT_EQ(stats.completed, calls + program_calls[0] + program_calls[1]);
  EXPECT_EQ(stats.planned_programs, kClients * kProgramsPerClient);
  expect_shard_identity(stats);
}

}  // namespace
}  // namespace ae
