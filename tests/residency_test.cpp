// core::ResidencyTable — the one bank-slot model behind EngineSession, aeplan
// and aealloc.
//
// Unit tests pin the table's rules (victim order, the per-call claim set,
// advisory pins, the snapshot round trip).  The session-vs-plan tests check
// the point of having one table: on frames of distinct content, the
// content-keyed session charges exactly the transfers, reuses and
// relocations that the frame-id-keyed planner predicts.  The tier1 case is
// the program on which the two once disagreed; the fusion-biased corpus
// sweep (ResidencyFuzz) is tier2.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/optimizer.hpp"
#include "analysis/planner.hpp"
#include "core/residency.hpp"
#include "core/session.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::Neighborhood;
using alib::PixelOp;
using analysis::CallProgram;
using core::ResidencySnapshot;
using core::TransferKind;
using Table = core::ResidencyTable<u64>;

// ---- table rules -----------------------------------------------------------

TEST(ResidencyTable, VictimIsTransientFirstThenLeastRecentlyUsed) {
  Table t;
  EXPECT_EQ(t.acquire(1).slot, 0u);  // empty slots tie: the lower one
  EXPECT_EQ(t.acquire(2).slot, 1u);
  t.finish_call(100);
  // Both inputs of the last call are equally recent: the tie goes to slot 0.
  const Table::Acquired c = t.acquire(3);
  EXPECT_EQ(c.kind, TransferKind::Transferred);
  EXPECT_EQ(c.slot, 0u);
  t.finish_call(101);
  // Slot 1 (key 2) is now the least recently used.
  EXPECT_EQ(t.acquire(4).slot, 1u);
  t.finish_call(102);
  // The previous result is relocated into the LRU slot and marked
  // transient.
  const Table::Acquired r = t.acquire(102);
  EXPECT_EQ(r.kind, TransferKind::Relocated);
  EXPECT_EQ(r.slot, 0u);
  t.finish_call(103);
  // Slot 1 is the least recently used, but the transient slot 0 goes first.
  Table reused = t;
  EXPECT_EQ(t.acquire(5).slot, 0u);
  t.finish_call(104);
  EXPECT_TRUE(t.holds(4));
  EXPECT_TRUE(t.holds(5));
  EXPECT_TRUE(t.holds(104));
  EXPECT_FALSE(t.holds(102));
  EXPECT_FALSE(t.holds(0));
  // A reuse clears the transient mark: plain LRU applies again.
  EXPECT_EQ(reused.acquire(102).kind, TransferKind::Reused);
  reused.finish_call(104);
  EXPECT_EQ(reused.acquire(5).slot, 1u);
}

TEST(ResidencyTable, EqualInputsOfOneCallClaimBothSlots) {
  Table t;
  const Table::Acquired a = t.acquire(7);
  const Table::Acquired b = t.acquire(7);
  EXPECT_EQ(a.kind, TransferKind::Transferred);
  EXPECT_EQ(b.kind, TransferKind::Transferred);
  EXPECT_NE(a.slot, b.slot);
  t.finish_call(8);
  // Next call: one resident copy per pair, so both inputs are reused.
  const Table::Acquired a2 = t.acquire(7);
  const Table::Acquired b2 = t.acquire(7);
  EXPECT_EQ(a2.kind, TransferKind::Reused);
  EXPECT_EQ(b2.kind, TransferKind::Reused);
  EXPECT_NE(a2.slot, b2.slot);
}

TEST(ResidencyTable, AdvisoryPinsFallBackWhenEverySlotIsPinned) {
  Table t;
  t.acquire(1);
  t.finish_call(50);
  t.acquire(2);
  t.finish_call(51);
  // Slot 0 (key 1) is the LRU victim; pinning it spares it.
  const auto pin_1 = Table::sparing([](u64 k) { return k == 1; });
  EXPECT_EQ(t.acquire(3, true, pin_1).slot, 1u);
  t.finish_call(52);
  EXPECT_TRUE(t.holds(1));
  EXPECT_FALSE(t.holds(2));
  // Everything pinned: the default order applies as if nothing were.
  const auto pin_all = Table::sparing([](u64) { return true; });
  EXPECT_EQ(t.acquire(4, true, pin_all).slot, 0u);
  t.finish_call(53);
  EXPECT_FALSE(t.holds(1));
}

TEST(ResidencyTable, NotReusableTransfersEvenWhenResident) {
  Table t;
  t.acquire(1);
  t.finish_call(2);
  EXPECT_EQ(t.acquire(1, /*reusable=*/false).kind, TransferKind::Transferred);
  EXPECT_EQ(t.acquire(2, /*reusable=*/false).kind, TransferKind::Transferred);
}

TEST(ResidencyTable, SnapshotRoundTripsAndTheClockNeverRewinds) {
  Table t;
  t.acquire(1);
  t.acquire(2);
  t.finish_call(3);
  t.acquire(3);
  t.finish_call(4);
  const ResidencySnapshot s = t.snapshot();
  EXPECT_EQ(s.use_clock, 2u);
  EXPECT_EQ(s.input_slots[0].hash, 3u);
  EXPECT_TRUE(s.input_slots[0].transient);
  EXPECT_EQ(s.input_slots[1].hash, 2u);
  EXPECT_EQ(s.result_hash, 4u);

  const Table copy(s);
  const ResidencySnapshot back = copy.snapshot();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.input_slots[i].hash, s.input_slots[i].hash);
    EXPECT_EQ(back.input_slots[i].last_use, s.input_slots[i].last_use);
    EXPECT_EQ(back.input_slots[i].transient, s.input_slots[i].transient);
  }
  EXPECT_EQ(back.result_hash, s.result_hash);
  EXPECT_EQ(back.use_clock, s.use_clock);

  // Restoring an older snapshot keeps the later clock.
  Table later = t;
  for (u64 k = 10; k < 15; ++k) {
    later.acquire(k);
    later.finish_call(k + 100);
  }
  later.restore(s);
  EXPECT_EQ(later.snapshot().use_clock, 7u);
  EXPECT_TRUE(later.holds(3));

  later.evict(3);
  EXPECT_FALSE(later.holds(3));
  EXPECT_TRUE(later.install_free(9));
  EXPECT_FALSE(later.install_free(10));  // both pairs occupied
  EXPECT_EQ(later.snapshot().input_slots[0].last_use, 8u);

  ResidencySnapshot bad = s;
  bad.input_slots[1].last_use = bad.use_clock + 1;
  EXPECT_FALSE(bad.consistent());
  EXPECT_THROW(later.restore(bad), InvalidArgument);
}

// ---- session vs plan -------------------------------------------------------

/// Runs a program's calls through one fresh EngineSession and records each
/// call's output content key.
class SessionRecorder : public alib::Backend {
 public:
  std::string name() const override { return session.name(); }
  alib::CallResult execute(const Call& call, const img::Image& a,
                           const img::Image* b) override {
    alib::CallResult r = session.execute(call, a, b);
    output_keys.push_back(session.last_output_key());
    return r;
  }

  core::EngineSession session;
  std::vector<u64> output_keys;
};

/// Expects the session's charged transfer counts to equal the plan's.
void expect_session_charges_plan(const CallProgram& program,
                                 const core::SessionStats& stats) {
  const analysis::ProgramPlan plan = analysis::plan_program(program);
  i64 transferred = 0;
  i64 reused = 0;
  i64 relocated = 0;
  for (const analysis::CallPlan& cp : plan.calls)
    for (const analysis::InputPlan& ip : cp.inputs) {
      transferred += ip.kind == TransferKind::Transferred;
      reused += ip.kind == TransferKind::Reused;
      relocated += ip.kind == TransferKind::Relocated;
    }
  EXPECT_EQ(stats.inputs_transferred, transferred);
  EXPECT_EQ(stats.inputs_reused - stats.board_copies, reused);
  EXPECT_EQ(stats.board_copies, relocated);
}

// (A,B) | C | (B,D) | E | B: B and D are used by the same call, so they are
// equally recent at call 3, and E must evict D (the lower slot), keeping B
// for call 4.
TEST(Residency, SessionChargesWhatAeplanPredicts) {
  constexpr Size kFrame{48, 32};
  CallProgram program;
  std::vector<i32> in;
  std::vector<img::Image> inputs;
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    in.push_back(program.add_input(kFrame, name));
    inputs.push_back(img::make_test_frame(
        kFrame, static_cast<u64>(0x5E55 + inputs.size())));
  }
  alib::OpParams params;
  params.threshold = 10;
  const Call pointwise =
      Call::make_intra(PixelOp::Threshold, Neighborhood::con0(),
                       ChannelMask::y(), ChannelMask::y(), params);
  const Call inter = Call::make_inter(PixelOp::AbsDiff);
  program.add_call(inter, in[0], in[1]);
  program.add_call(pointwise, in[2]);
  program.add_call(inter, in[1], in[3]);
  program.add_call(pointwise, in[4]);
  program.mark_output(program.add_call(pointwise, in[1]));

  SessionRecorder run;
  (void)analysis::run_program(program, run, inputs);
  expect_session_charges_plan(program, run.session.stats());
  EXPECT_EQ(run.session.stats().inputs_transferred, 5);
  EXPECT_EQ(run.session.stats().inputs_reused, 2);
}

// Content keying legitimately differs from id keying when two frames share
// content (a Copy result equals its input), so only programs whose input and
// call-output hashes are pairwise distinct are compared.
TEST(ResidencyFuzz, SessionMatchesPlanOnContentDistinctPrograms) {
  int compared = 0;
  for (u64 seed = 1; seed <= 4000; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const CallProgram program = test::random_fusion_biased_program(rng, 12);
    std::vector<img::Image> inputs;
    std::vector<u64> keys;
    for (const analysis::FrameDecl& decl : program.frames())
      if (decl.producer == analysis::kNoFrame) {
        inputs.push_back(img::make_test_frame(decl.size, rng.next_u64()));
        keys.push_back(core::frame_content_hash(inputs.back()));
      }
    SessionRecorder run;
    (void)analysis::run_program(program, run, inputs);
    keys.insert(keys.end(), run.output_keys.begin(), run.output_keys.end());
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) continue;
    ++compared;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_session_charges_plan(program, run.session.stats());
  }
  EXPECT_GT(compared, 200);
}

}  // namespace
}  // namespace ae
