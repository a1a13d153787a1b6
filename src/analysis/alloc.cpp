#include "analysis/alloc.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <sstream>

#include "analysis/diagnostic.hpp"
#include "core/config.hpp"
#include "core/residency.hpp"

namespace ae::analysis {
namespace {

std::size_t call_arity(const ProgramCall& pc) {
  return pc.call.mode == alib::Mode::Inter ? 2 : 1;
}

u64 frame_words(const CallProgram& program, i32 frame) {
  if (!program.valid_frame(frame)) return 0;
  const Size size = program.frames()[static_cast<std::size_t>(frame)].size;
  return size.area() > 0 ? 2 * static_cast<u64>(size.area()) : 0;
}

/// First-use / last-use scan.  Only the arity inputs of each call count as
/// reads — an input_b stamped on a non-inter call is the verifier's problem
/// (AEV204), not a liveness event, matching how the planner prices inputs.
std::vector<LiveInterval> compute_intervals(const CallProgram& program,
                                            const core::EngineConfig& config) {
  std::vector<LiveInterval> intervals(program.frames().size());
  for (std::size_t f = 0; f < program.frames().size(); ++f) {
    LiveInterval& li = intervals[f];
    li.frame = static_cast<i32>(f);
    li.def = program.frames()[f].producer;
    li.words = frame_words(program, li.frame);
    li.bank_ok = core::frame_fit(config, program.frames()[f].size).ok();
  }
  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    const ProgramCall& pc = program.calls()[i];
    const std::array<i32, 2> inputs{pc.input_a, pc.input_b};
    for (std::size_t k = 0; k < call_arity(pc); ++k) {
      const i32 f = inputs[k];
      if (!program.valid_frame(f)) continue;
      LiveInterval& li = intervals[static_cast<std::size_t>(f)];
      if (li.first_use == kNoFrame) li.first_use = static_cast<i32>(i);
      li.last_use = static_cast<i32>(i);
    }
  }
  for (const i32 out : program.outputs())
    if (program.valid_frame(out))
      intervals[static_cast<std::size_t>(out)].output = true;
  return intervals;
}

/// Live span of a frame in call-index coordinates, or {0, -1} (empty) for
/// frames that are never read.
struct Span {
  i32 from = 0;
  i32 to = -1;
  bool empty() const { return to < from; }
};

Span live_span(const LiveInterval& li) {
  if (li.last_use == kNoFrame) return {};  // never read: competes for nothing
  const i32 from = li.def != kNoFrame ? li.def : li.first_use;
  return Span{from, li.last_use};
}

// --- slot-exact replay -----------------------------------------------------
//
// Both policies replay the order through core::ResidencyTable, the table
// aeplan and EngineSession drive.  The LRU policy is the table's default
// victim order, so its Transferred words equal plan_program's by
// construction (tests/alloc_test.cpp keeps the 520-program equality as a
// tripwire).  Belady supplies its own victim order and reuse filter.

enum class Policy { Lru, Belady };

struct Replay {
  std::vector<CallAssignment> assignments;
  u64 transferred_words = 0;
  i64 transferred = 0;
  i64 reused = 0;
  i64 relocated = 0;
};

constexpr i64 kNoNextUse = -1;

/// Per-frame sorted positions (in a candidate schedule) where the frame is
/// read, for Belady's farthest-next-use victim rule.
class UseTable {
 public:
  UseTable(const CallProgram& program, const std::vector<i32>& schedule)
      : uses_(program.frames().size()) {
    for (std::size_t p = 0; p < schedule.size(); ++p) {
      const ProgramCall& pc =
          program.calls()[static_cast<std::size_t>(schedule[p])];
      const std::array<i32, 2> inputs{pc.input_a, pc.input_b};
      for (std::size_t k = 0; k < call_arity(pc); ++k)
        if (program.valid_frame(inputs[k]))
          uses_[static_cast<std::size_t>(inputs[k])].push_back(
              static_cast<i32>(p));
    }
  }

  /// First read of `frame` strictly after position `pos`, or kNoNextUse.
  i64 next_use(i32 frame, i32 pos) const {
    if (frame < 0 || frame >= static_cast<i32>(uses_.size())) return kNoNextUse;
    const std::vector<i32>& u = uses_[static_cast<std::size_t>(frame)];
    const auto it = std::upper_bound(u.begin(), u.end(), pos);
    return it == u.end() ? kNoNextUse : *it;
  }

 private:
  std::vector<std::vector<i32>> uses_;
};

class ReplayMachine {
 public:
  using Table = core::ResidencyTable<i32, kNoFrame>;

  ReplayMachine(Policy policy, const UseTable& uses,
                const std::vector<LiveInterval>& intervals)
      : policy_(policy), uses_(uses), intervals_(intervals) {}

  /// Classifies one input at schedule position `pos`; returns kind + slot.
  InputAssignment place_input(i32 frame, i32 pos, u64 words) {
    InputAssignment ia;
    ia.frame = frame;
    ia.words = words;
    // Invalid references never match a slot — and must not claim one.
    if (frame < 0) return ia;
    // Belady: farthest next use first; a frame whose geometry cannot be
    // reused is never reused or relocated.
    const auto farther = [&](const Table::Slot& a, const Table::Slot& b) {
      return belady_rank(a.key, pos) > belady_rank(b.key, pos);
    };
    const Table::Acquired got =
        policy_ == Policy::Lru
            ? table_.acquire(frame)
            : table_.acquire(frame, bank_usable(frame), farther);
    ia.kind = got.kind;
    ia.slot = static_cast<i32>(got.slot);
    return ia;
  }

  void finish_call(i32 output_frame) { table_.finish_call(output_frame); }

  /// Input-slot frames still read after position `pos` — the pin set.
  std::vector<i32> keep_after(i32 pos) const {
    std::vector<i32> out;
    for (const Table::Slot& slot : table_.slots())
      if (slot.key != kNoFrame && uses_.next_use(slot.key, pos) != kNoNextUse)
        out.push_back(slot.key);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  bool bank_usable(i32 frame) const {
    return frame >= 0 && frame < static_cast<i32>(intervals_.size()) &&
           intervals_[static_cast<std::size_t>(frame)].bank_ok;
  }

  /// Belady's offline rule: empty slots first, then occupants never read
  /// again (or whose geometry cannot be reused), then the occupant whose
  /// next read is farthest away; the table breaks ties to the lower slot.
  i64 belady_rank(i32 frame, i32 pos) const {
    if (frame == kNoFrame) return std::numeric_limits<i64>::max();
    if (!bank_usable(frame)) return std::numeric_limits<i64>::max() - 1;
    const i64 nu = uses_.next_use(frame, pos);
    return nu == kNoNextUse ? std::numeric_limits<i64>::max() - 1 : nu;
  }

  Policy policy_;
  const UseTable& uses_;
  const std::vector<LiveInterval>& intervals_;
  Table table_;
};

Replay replay_schedule(const CallProgram& program,
                       const std::vector<i32>& schedule, Policy policy,
                       const std::vector<LiveInterval>& intervals) {
  const UseTable uses(program, schedule);
  ReplayMachine machine(policy, uses, intervals);
  Replay replay;
  for (std::size_t p = 0; p < schedule.size(); ++p) {
    const i32 index = schedule[p];
    const ProgramCall& pc = program.calls()[static_cast<std::size_t>(index)];
    CallAssignment ca;
    ca.call_index = index;
    const std::array<i32, 2> inputs{pc.input_a, pc.input_b};
    for (std::size_t k = 0; k < call_arity(pc); ++k) {
      const i32 f = inputs[k];
      InputAssignment ia = machine.place_input(
          f, static_cast<i32>(p), frame_words(program, f));
      switch (ia.kind) {
        case TransferKind::Transferred:
          ++replay.transferred;
          replay.transferred_words += ia.words;
          break;
        case TransferKind::Reused:
          ++replay.reused;
          break;
        case TransferKind::Relocated:
          ++replay.relocated;
          break;
      }
      ca.inputs.push_back(ia);
    }
    ca.keep = machine.keep_after(static_cast<i32>(p));
    machine.finish_call(pc.output);
    replay.assignments.push_back(std::move(ca));
  }
  return replay;
}

// --- schedule search -------------------------------------------------------

/// True when hoisting the call at position `j` to position `dest` keeps the
/// order dependence-legal: every produced input of the moved call must come
/// from a call at a position before `dest`.  Calls displaced one slot later
/// keep their relative order (and none of them reads the moved call's
/// output — it sat after all of them), so only the moved call needs the
/// check.
bool hoist_legal(const CallProgram& program, const std::vector<i32>& order,
                 const std::vector<i32>& position_of, std::size_t j,
                 std::size_t dest) {
  const ProgramCall& pc =
      program.calls()[static_cast<std::size_t>(order[j])];
  const std::array<i32, 2> inputs{pc.input_a, pc.input_b};
  for (std::size_t k = 0; k < call_arity(pc); ++k) {
    const i32 f = inputs[k];
    if (!program.valid_frame(f)) continue;
    const i32 producer = program.frames()[static_cast<std::size_t>(f)].producer;
    if (producer == kNoFrame) continue;  // external input
    if (producer < 0 ||
        producer >= static_cast<i32>(position_of.size()))
      return false;  // ill-formed producer reference: refuse to move
    if (static_cast<std::size_t>(
            position_of[static_cast<std::size_t>(producer)]) >= dest)
      return false;
  }
  return true;
}

std::vector<i32> apply_hoist(const std::vector<i32>& order, std::size_t j,
                             std::size_t dest) {
  std::vector<i32> out = order;
  const i32 moved = out[j];
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(j));
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(dest), moved);
  return out;
}

/// Backstop on greedy schedule moves (each move re-prices O(n^2) candidate
/// hoists; programs are short, so this is a guard, not a knob).
constexpr int kMaxScheduleMoves = 32;

/// Greedy steepest descent over single-call hoists; objective = Belady
/// Transferred words.  Returns the best order found (possibly identity).
std::vector<i32> greedy_schedule(const CallProgram& program,
                                 const std::vector<LiveInterval>& intervals) {
  const std::size_t n = program.calls().size();
  std::vector<i32> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n < 2) return order;  // nothing to hoist
  u64 current_words =
      replay_schedule(program, order, Policy::Belady, intervals)
          .transferred_words;
  for (int move = 0; move < kMaxScheduleMoves; ++move) {
    std::vector<i32> position_of(n);
    for (std::size_t p = 0; p < n; ++p)
      position_of[static_cast<std::size_t>(order[p])] = static_cast<i32>(p);
    u64 best_words = current_words;
    std::vector<i32> best_order;
    for (std::size_t j = 1; j < n; ++j) {
      for (std::size_t dest = 0; dest < j; ++dest) {
        if (!hoist_legal(program, order, position_of, j, dest)) continue;
        std::vector<i32> cand = apply_hoist(order, j, dest);
        const u64 w =
            replay_schedule(program, cand, Policy::Belady, intervals)
                .transferred_words;
        if (w < best_words) {
          best_words = w;
          best_order = std::move(cand);
        }
      }
    }
    if (best_order.empty()) break;  // no strictly improving hoist
    order = std::move(best_order);
    current_words = best_words;
  }
  return order;
}

}  // namespace

bool frames_interfere(const LiveInterval& a, const LiveInterval& b) {
  if (a.frame == b.frame) return false;
  const Span sa = live_span(a);
  const Span sb = live_span(b);
  if (sa.empty() || sb.empty()) return false;
  return std::max(sa.from, sb.from) <= std::min(sa.to, sb.to);
}

ResidencyPlan allocate_residency(const CallProgram& program,
                                 const AllocOptions& options) {
  ResidencyPlan plan;
  plan.intervals = compute_intervals(program, options.plan.config);

  // Interference summary over the original order.
  for (std::size_t a = 0; a < plan.intervals.size(); ++a)
    for (std::size_t b = a + 1; b < plan.intervals.size(); ++b)
      if (frames_interfere(plan.intervals[a], plan.intervals[b]))
        ++plan.interference_edges;
  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    i32 live = 0;
    for (const LiveInterval& li : plan.intervals) {
      const Span s = live_span(li);
      if (!s.empty() && s.from <= static_cast<i32>(i) &&
          static_cast<i32>(i) <= s.to)
        ++live;
    }
    plan.max_live = std::max(plan.max_live, live);
  }

  // Baseline: aeplan's LRU residency on the original order.  The LRU replay
  // runs the same table, so its assignments are the guaranteed-sound
  // fallback placement.
  const ProgramPlan base = plan_program(program, options.plan);
  for (const CallPlan& cp : base.calls)
    for (const InputPlan& ip : cp.inputs) {
      plan.cold_words += ip.words;
      if (ip.kind == TransferKind::Transferred)
        plan.baseline_transferred_words += ip.words;
    }

  std::vector<i32> identity(program.calls().size());
  std::iota(identity.begin(), identity.end(), 0);
  Replay lru = replay_schedule(program, identity, Policy::Lru, plan.intervals);

  Replay best =
      replay_schedule(program, identity, Policy::Belady, plan.intervals);
  std::vector<i32> best_schedule = identity;
  if (options.schedule) {
    std::vector<i32> hinted =
        greedy_schedule(program, plan.intervals);
    if (hinted != identity) {
      Replay reordered =
          replay_schedule(program, hinted, Policy::Belady, plan.intervals);
      if (reordered.transferred_words < best.transferred_words) {
        best = std::move(reordered);
        best_schedule = std::move(hinted);
      }
    }
  }

  // Never-regress gate: the Belady result must strictly beat the LRU replay
  // or the LRU replay itself is emitted — what the driver would do anyway, so
  // the plan can only match or improve the aeplan baseline.
  if (best.transferred_words >= lru.transferred_words) {
    best = std::move(lru);
    best_schedule = std::move(identity);
  }

  plan.reordered = false;
  for (std::size_t p = 0; p < best_schedule.size(); ++p)
    if (best_schedule[p] != static_cast<i32>(p)) plan.reordered = true;
  plan.schedule = std::move(best_schedule);
  plan.assignments = std::move(best.assignments);
  plan.allocated_transferred_words = best.transferred_words;
  plan.words_saved =
      plan.baseline_transferred_words > plan.allocated_transferred_words
          ? plan.baseline_transferred_words - plan.allocated_transferred_words
          : 0;
  plan.inputs_transferred = best.transferred;
  plan.inputs_reused = best.reused;
  plan.inputs_relocated = best.relocated;
  return plan;
}

bool residency_plan_legal(const CallProgram& program, const ResidencyPlan& plan,
                          std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  const std::size_t n = program.calls().size();
  if (plan.schedule.size() != n) return fail("schedule length != call count");
  if (plan.assignments.size() != n)
    return fail("assignment count != call count");

  // Permutation + dependence order.
  std::vector<bool> seen_call(n, false);
  std::vector<bool> produced(program.frames().size(), false);
  for (std::size_t f = 0; f < program.frames().size(); ++f)
    produced[f] = program.frames()[f].producer == kNoFrame;  // externals
  for (std::size_t p = 0; p < n; ++p) {
    const i32 index = plan.schedule[p];
    if (index < 0 || index >= static_cast<i32>(n))
      return fail("schedule entry out of range");
    if (seen_call[static_cast<std::size_t>(index)])
      return fail("schedule repeats a call");
    seen_call[static_cast<std::size_t>(index)] = true;
    const ProgramCall& pc = program.calls()[static_cast<std::size_t>(index)];
    const std::array<i32, 2> inputs{pc.input_a, pc.input_b};
    for (std::size_t k = 0; k < call_arity(pc); ++k)
      if (program.valid_frame(inputs[k]) &&
          !produced[static_cast<std::size_t>(inputs[k])])
        return fail("schedule reads a frame before it is produced");
    if (program.valid_frame(pc.output))
      produced[static_cast<std::size_t>(pc.output)] = true;
  }

  // Slot simulation: Reused must hit a resident slot, Relocated must name
  // the previous result, no two inputs of one call may share a slot, and
  // keep sets may only name frames actually left resident.
  std::array<i32, 2> slot_frame{kNoFrame, kNoFrame};
  i32 result_frame = kNoFrame;
  for (std::size_t p = 0; p < n; ++p) {
    const i32 index = plan.schedule[p];
    const CallAssignment& ca = plan.assignments[p];
    if (ca.call_index != index)
      return fail("assignment order does not match the schedule");
    const ProgramCall& pc = program.calls()[static_cast<std::size_t>(index)];
    if (ca.inputs.size() != call_arity(pc))
      return fail("assignment arity does not match the call mode");
    std::array<bool, 2> claimed{false, false};
    const std::array<i32, 2> inputs{pc.input_a, pc.input_b};
    for (std::size_t k = 0; k < ca.inputs.size(); ++k) {
      const InputAssignment& ia = ca.inputs[k];
      if (ia.frame != inputs[k])
        return fail("assignment names the wrong input frame");
      if (ia.words != frame_words(program, ia.frame))
        return fail("assignment words do not match the frame geometry");
      if (ia.frame < 0) {
        if (ia.slot != -1)
          return fail("invalid frame reference claims a slot");
        if (ia.kind != TransferKind::Transferred)
          return fail("invalid frame reference classified resident");
        continue;
      }
      if (ia.slot < 0 || ia.slot > 1)
        return fail("input slot out of range");
      const auto s = static_cast<std::size_t>(ia.slot);
      if (claimed[s]) return fail("two inputs of one call share a slot");
      switch (ia.kind) {
        case TransferKind::Reused:
          if (slot_frame[s] != ia.frame)
            return fail("Reused input's frame is not resident in its slot");
          break;
        case TransferKind::Relocated:
          if (result_frame != ia.frame)
            return fail("Relocated input is not the previous result");
          break;
        case TransferKind::Transferred:
          break;
      }
      claimed[s] = true;
      slot_frame[s] = ia.frame;
    }
    for (const i32 kept : ca.keep)
      if (kept != slot_frame[0] && kept != slot_frame[1])
        return fail("keep set names a frame not resident in an input slot");
    result_frame = pc.output;
  }

  // Word accounting: the plan's totals must match its own assignments.
  u64 transferred_words = 0;
  for (const CallAssignment& ca : plan.assignments)
    for (const InputAssignment& ia : ca.inputs)
      if (ia.kind == TransferKind::Transferred) transferred_words += ia.words;
  if (transferred_words != plan.allocated_transferred_words)
    return fail("allocated_transferred_words does not match the assignments");
  if (why != nullptr) why->clear();
  return true;
}

std::string ResidencyPlan::format(const CallProgram& program) const {
  std::ostringstream os;
  for (std::size_t p = 0; p < assignments.size(); ++p) {
    const CallAssignment& ca = assignments[p];
    const ProgramCall& pc =
        program.calls()[static_cast<std::size_t>(ca.call_index)];
    os << "slot " << p << " = call " << ca.call_index << " (-> "
       << program.frame_name(pc.output) << "):";
    for (const InputAssignment& ia : ca.inputs) {
      os << ' ' << program.frame_name(ia.frame) << ':' << to_string(ia.kind);
      if (ia.slot >= 0) os << "@s" << ia.slot;
      os << '(' << ia.words << "w)";
    }
    if (!ca.keep.empty()) {
      os << " keep:";
      for (const i32 f : ca.keep) os << ' ' << program.frame_name(f);
    }
    os << '\n';
  }
  os << "alloc: " << (reordered ? "reordered" : "in-order")
     << " transferred=" << allocated_transferred_words
     << "w baseline=" << baseline_transferred_words
     << "w saved=" << words_saved << "w (cold " << cold_words
     << "w, live<=" << max_live << ", " << interference_edges
     << " interference edges)";
  return os.str();
}

std::string alloc_json(const ResidencyPlan& plan, const CallProgram& program) {
  std::ostringstream os;
  os << "{\"schedule\":[";
  for (std::size_t p = 0; p < plan.schedule.size(); ++p)
    os << (p != 0 ? "," : "") << plan.schedule[p];
  os << "],\"reordered\":" << (plan.reordered ? "true" : "false")
     << ",\"intervals\":[";
  bool first = true;
  for (const LiveInterval& li : plan.intervals) {
    if (!first) os << ',';
    first = false;
    os << "{\"frame\":" << json_quote(program.frame_name(li.frame))
       << ",\"def\":" << li.def << ",\"first_use\":" << li.first_use
       << ",\"last_use\":" << li.last_use << ",\"words\":" << li.words
       << ",\"output\":" << (li.output ? "true" : "false")
       << ",\"bank_ok\":" << (li.bank_ok ? "true" : "false") << '}';
  }
  os << "],\"calls\":[";
  first = true;
  for (const CallAssignment& ca : plan.assignments) {
    if (!first) os << ',';
    first = false;
    const ProgramCall& pc =
        program.calls()[static_cast<std::size_t>(ca.call_index)];
    os << "{\"index\":" << ca.call_index
       << ",\"output\":" << json_quote(program.frame_name(pc.output))
       << ",\"inputs\":[";
    bool first_in = true;
    for (const InputAssignment& ia : ca.inputs) {
      if (!first_in) os << ',';
      first_in = false;
      os << "{\"frame\":" << json_quote(program.frame_name(ia.frame))
         << ",\"kind\":" << json_quote(to_string(ia.kind))
         << ",\"slot\":" << ia.slot << ",\"words\":" << ia.words << '}';
    }
    os << "],\"keep\":[";
    bool first_keep = true;
    for (const i32 f : ca.keep) {
      if (!first_keep) os << ',';
      first_keep = false;
      os << json_quote(program.frame_name(f));
    }
    os << "]}";
  }
  os << "],\"interference\":{\"edges\":" << plan.interference_edges
     << ",\"max_live\":" << plan.max_live
     << "},\"words\":{\"cold\":" << plan.cold_words
     << ",\"baseline\":" << plan.baseline_transferred_words
     << ",\"allocated\":" << plan.allocated_transferred_words
     << ",\"saved\":" << plan.words_saved
     << "},\"inputs\":{\"transferred\":" << plan.inputs_transferred
     << ",\"reused\":" << plan.inputs_reused
     << ",\"relocated\":" << plan.inputs_relocated << "}}";
  return os.str();
}

}  // namespace ae::analysis
