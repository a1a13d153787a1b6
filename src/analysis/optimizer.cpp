#include "analysis/optimizer.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/alloc.hpp"
#include "analysis/domain.hpp"
#include "analysis/lints.hpp"
#include "analysis/rules.hpp"
#include "common/error.hpp"

namespace ae::analysis {
namespace {

using alib::Call;
using alib::Mode;
using alib::PixelOp;

/// Ops whose results escape through the side port: dropping such a call
/// changes the merged SideAccum even when its output frame is dead.
bool has_side_port_results(const Call& call) {
  const auto side_op = [](PixelOp op) {
    return op == PixelOp::Histogram || op == PixelOp::Sad ||
           op == PixelOp::GmeAccum || op == PixelOp::GmeAccumAffine ||
           op == PixelOp::GmePerspective;
  };
  if (side_op(call.op)) return true;
  for (const alib::FusedStage& s : call.fused)
    if (side_op(s.op)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Program surgery: rebuild a CallProgram from a call order + per-call edits.
// External frames are re-declared first, in their original relative order
// (run_program keys its inputs on that order), then calls are emitted with
// every frame reference mapped through the rebuild.
// ---------------------------------------------------------------------------

struct Surgery {
  /// Old call indices, in emission order (omitted indices are dropped).
  std::vector<std::size_t> order;
  /// Replacement descriptors for emitted calls, keyed by old index.
  std::map<std::size_t, Call> replace;
  /// Extra frame aliases: old frame id -> old call index whose (new) output
  /// satisfies the reference (fusion points the consumer's readers at the
  /// fused call's result).
  std::map<i32, std::size_t> alias_to_output_of;
  /// Frame-to-frame aliases: old frame id -> old frame id that satisfies
  /// the reference (range drops point the dropped call's readers at its
  /// input).  Resolved to a fixpoint — chained drops compose — before
  /// alias_to_output_of.
  std::map<i32, i32> alias_to_frame;
};

CallProgram apply_surgery(const CallProgram& src, const Surgery& s) {
  CallProgram out;
  std::vector<i32> map(src.frames().size(), kNoFrame);
  for (std::size_t f = 0; f < src.frames().size(); ++f) {
    const FrameDecl& decl = src.frames()[f];
    if (decl.producer != kNoFrame) continue;
    map[f] = out.add_input(decl.size, decl.name);
  }
  const auto resolve = [&](i32 frame) {
    if (!src.valid_frame(frame)) return frame;  // pass bad refs through
    i32 f = frame;
    for (auto fa = s.alias_to_frame.find(f); fa != s.alias_to_frame.end();
         fa = s.alias_to_frame.find(f))
      f = fa->second;
    const auto alias = s.alias_to_output_of.find(f);
    if (alias != s.alias_to_output_of.end())
      return map[static_cast<std::size_t>(
          src.calls()[alias->second].output)];
    return map[static_cast<std::size_t>(f)];
  };
  for (const std::size_t ci : s.order) {
    const ProgramCall& pc = src.calls()[ci];
    const auto rep = s.replace.find(ci);
    const Call& call = rep == s.replace.end() ? pc.call : rep->second;
    const i32 o = out.add_call(call, resolve(pc.input_a),
                               pc.input_b == kNoFrame ? kNoFrame
                                                      : resolve(pc.input_b));
    map[static_cast<std::size_t>(pc.output)] = o;
    out.set_frame_name(o, src.frames()[static_cast<std::size_t>(pc.output)]
                              .name);
  }
  for (const i32 f : src.outputs()) out.mark_output(resolve(f));
  return out;
}

// ---------------------------------------------------------------------------
// Dominance proofs
// ---------------------------------------------------------------------------

bool envelope_equal(const CostEnvelope& a, const CostEnvelope& b) {
  return a.cycles.lower == b.cycles.lower &&
         a.cycles.upper == b.cycles.upper &&
         a.cycles_estimate == b.cycles_estimate &&
         a.dma_words_in == b.dma_words_in &&
         a.dma_words_out == b.dma_words_out &&
         a.zbt_reads.lower == b.zbt_reads.lower &&
         a.zbt_reads.upper == b.zbt_reads.upper &&
         a.zbt_writes.lower == b.zbt_writes.lower &&
         a.zbt_writes.upper == b.zbt_writes.upper;
}

u64 transferred_words(const ProgramPlan& plan) {
  u64 words = 0;
  for (const CallPlan& cp : plan.calls)
    for (const InputPlan& ip : cp.inputs)
      if (ip.kind == TransferKind::Transferred) words += ip.words;
  return words;
}

u64 total_dma_words(const ProgramPlan& plan) {
  return plan.total.dma_words_in + plan.total.dma_words_out;
}

/// A rewritten program awaiting its proof.  `removed` lists old call
/// indices whose envelopes the structural tier claims as the saving (empty
/// disables that tier, as for reorders).
struct Candidate {
  CallProgram program;           // rewritten program
  std::vector<std::size_t> removed;  // structural-claim call indices
  bool permutation = false;      // residency tier applies (reorder)
};

/// The shared acceptance gate: re-verify, re-plan, and prove dominance.
/// Returns true and fills `record`'s tier and claims on acceptance.
bool prove_and_admit(const ProgramPlan& plan_old, const Candidate& cand,
                     const PlanOptions& options, RewriteRecord& record) {
  // Gate 1 — every emitted program re-passes aeverify on the same board.
  if (verify_program(cand.program, VerifyOptions{options.config}).has_errors())
    return false;

  const ProgramPlan plan_new = plan_program(cand.program, options);

  // Tier "proven": unconditional cycle dominance, margins included.
  if (plan_new.total.cycles.upper <= plan_old.total.cycles.lower) {
    record.tier = "proven";
    record.claimed_cycles_delta =
        static_cast<i64>(plan_old.total.cycles_estimate) -
        static_cast<i64>(plan_new.total.cycles_estimate);
    record.claimed_cycles_bound.lower =
        plan_old.total.cycles.lower - plan_new.total.cycles.upper;
    record.claimed_cycles_bound.upper =
        plan_old.total.cycles.upper - plan_new.total.cycles.lower;
    record.claimed_pci_words_delta =
        static_cast<i64>(total_dma_words(plan_old)) -
        static_cast<i64>(total_dma_words(plan_new));
    return true;
  }

  // Tier "structural" (fuse / dead-elim): the surviving calls' envelopes
  // must be numerically identical to their originals, so the saving is
  // exactly the removed calls' envelopes — no margin arithmetic involved.
  if (!cand.removed.empty()) {
    if (plan_new.calls.size() + cand.removed.size() != plan_old.calls.size())
      return false;
    std::vector<bool> dropped(plan_old.calls.size(), false);
    for (const std::size_t r : cand.removed)
      dropped[r] = true;
    std::size_t j = 0;
    for (std::size_t i = 0; i < plan_old.calls.size(); ++i) {
      if (dropped[i]) continue;
      if (!envelope_equal(plan_old.calls[i].envelope,
                          plan_new.calls[j].envelope))
        return false;
      ++j;
    }
    record.tier = "structural";
    u64 est = 0;
    u64 lo = 0;
    u64 hi = 0;
    u64 dma = 0;
    for (const std::size_t r : cand.removed) {
      const CostEnvelope& e = plan_old.calls[r].envelope;
      est += e.cycles_estimate;
      lo += e.cycles.lower;
      hi += e.cycles.upper;
      dma += e.dma_words_in + e.dma_words_out;
    }
    record.claimed_cycles_delta = static_cast<i64>(est);
    record.claimed_cycles_bound = CostBound{lo, hi};
    record.claimed_pci_words_delta = static_cast<i64>(dma);
    return true;
  }

  // Tier "residency" (reorder): the program is a permutation — totals must
  // be identical — and the rewrite is kept only when the residency
  // schedule's Transferred PCI words strictly decrease.
  if (cand.permutation) {
    if (!envelope_equal(plan_old.total, plan_new.total)) return false;
    const u64 before = transferred_words(plan_old);
    const u64 after = transferred_words(plan_new);
    if (after >= before) return false;
    record.tier = "residency";
    record.claimed_cycles_delta = 0;
    record.claimed_cycles_bound = CostBound{0, 0};
    record.claimed_pci_words_delta = static_cast<i64>(before - after);
    return true;
  }

  return false;
}

// ---------------------------------------------------------------------------
// Rewrite classes
// ---------------------------------------------------------------------------

/// Backstop on pass rounds: each round runs every class to its own
/// fixpoint and rewrites are monotone, so this is never the binding limit.
constexpr int kMaxRounds = 8;

/// Drops call `i`, pointing readers of its result (and any output
/// declaration) at its first input: nothing reads a dead result, and a
/// range identity writes back exactly that input.
Candidate make_drop(const CallProgram& program, std::size_t i) {
  const ProgramCall& pc = program.calls()[i];
  Surgery s;
  for (std::size_t j = 0; j < program.calls().size(); ++j)
    if (j != i) s.order.push_back(j);
  s.alias_to_frame.emplace(pc.output, pc.input_a);
  return Candidate{apply_surgery(program, s), {i}, false};
}

Candidate make_fuse(const CallProgram& program, std::size_t i) {
  const ProgramCall& producer = program.calls()[i];
  const ProgramCall& consumer = program.calls()[i + 1];
  Call fused = producer.call;
  alib::FusedStage stage;
  stage.op = consumer.call.op;
  stage.params = consumer.call.params;
  stage.in = consumer.call.in_channels;
  stage.out = consumer.call.out_channels;
  fused.fused.push_back(std::move(stage));
  for (const alib::FusedStage& extra : consumer.call.fused)
    fused.fused.push_back(extra);

  Surgery s;
  for (std::size_t j = 0; j < program.calls().size(); ++j)
    if (j != i + 1) s.order.push_back(j);
  s.replace.emplace(i, std::move(fused));
  // Readers of the consumer's result (and the output declaration) now point
  // at the fused call's output.
  s.alias_to_output_of.emplace(consumer.output, i);
  Candidate cand{apply_surgery(program, s), {i + 1}, false};
  // The surviving frame should keep the consumer's name: that is the result
  // the rest of the program (and the host) knows.
  const ProgramCall& fused_pc = cand.program.calls()[i];
  cand.program.set_frame_name(
      fused_pc.output,
      program.frames()[static_cast<std::size_t>(consumer.output)].name);
  return cand;
}

/// AEW304 actionable form: hoist call `j` to directly follow `dest`.
Candidate make_reorder(const CallProgram& program, std::size_t j, i32 dest) {
  Surgery s;
  for (std::size_t k = 0; k < program.calls().size(); ++k) {
    if (k == j) continue;
    s.order.push_back(k);
    if (k == static_cast<std::size_t>(dest)) s.order.push_back(j);
  }
  return Candidate{apply_surgery(program, s), {}, true};
}

/// A rewrite class that removes or absorbs the call at one index: the
/// actionable form of one lint rule, run by the single loop in
/// optimize_program.
struct CallClass {
  const char* rule;
  const char* kind;
  /// Tier stamped over the admitting proof's (nullptr keeps the proof's).
  const char* tier;
  /// Calls the record names, starting at the candidate index.
  i32 span;
  /// Call `i` is a candidate; `why` receives the proof the note cites.
  bool (*candidate)(const CallProgram& program, std::size_t i,
                    const ProgramDomain& domain, std::string& why);
  Candidate (*rewrite)(const CallProgram& program, std::size_t i);
  std::string (*note)(const CallProgram& program, std::size_t i,
                      const std::string& why);
};

std::string result_name(const CallProgram& program, std::size_t i) {
  return "'" + program.frame_name(program.calls()[i].output) + "'";
}

/// In run order.  Dead-elim first: it shrinks the program the other classes
/// then scan.  A range drop often exposes a fuse, or a dead result the next
/// round picks up.
constexpr CallClass kCallClasses[] = {
    // AEW301, stricter than the advisory lint: streamed calls only, and
    // never a call whose side-port results (Histogram/Sad/Gme*) or segment
    // records the host can observe.
    {rules::kDeadStoreOverwrite, "dead-elim", nullptr, 1,
     [](const CallProgram& program, std::size_t i, const ProgramDomain&,
        std::string&) {
       const Call& call = program.calls()[i].call;
       return dead_result(program, i) && call.mode != Mode::Segment &&
              !has_side_port_results(call);
     },
     make_drop,
     [](const CallProgram& program, std::size_t i, const std::string&) {
       return "dropped dead result " + result_name(program, i);
     }},
    // AEW306: the value domain proves the call writes back exactly its
    // first input, so the drop is bit-exact by that proof; the tier reads
    // `range` so the log separates savings resting on a value-domain
    // identity proof from plain structural removals.  Declared outputs
    // stay: re-pointing a host-visible result at an external input frame
    // is out of surgery's contract.
    {rules::kRangeIdentityOp, "range", "range", 1,
     [](const CallProgram& program, std::size_t i,
        const ProgramDomain& domain, std::string& why) {
       return !is_program_output(program, program.calls()[i].output) &&
              range_identity_call(program, static_cast<i32>(i), domain,
                                  &why);
     },
     make_drop,
     [](const CallProgram& program, std::size_t i, const std::string& why) {
       return "dropped proven-identity result " + result_name(program, i) +
              " (" + why + ")";
     }},
    // AEW303: the fused call may then feed another pointwise call, which
    // the loop tries next at the same index.
    {rules::kFusablePointwisePair, "fuse", nullptr, 2,
     [](const CallProgram& program, std::size_t i, const ProgramDomain&,
        std::string&) { return fusable_pointwise_pair(program, i); },
     make_fuse,
     [](const CallProgram& program, std::size_t i, const std::string&) {
       return "fused pointwise " +
              alib::to_string(program.calls()[i + 1].call.op) +
              " onto call " + std::to_string(i);
     }},
};

void accumulate(RewriteLog& log, const RewriteRecord& record) {
  log.records.push_back(record);
  log.claimed_cycles_delta += record.claimed_cycles_delta;
  log.claimed_cycles_bound.lower += record.claimed_cycles_bound.lower;
  log.claimed_cycles_bound.upper += record.claimed_cycles_bound.upper;
  log.claimed_pci_words_delta += record.claimed_pci_words_delta;
}

}  // namespace

OptimizeResult optimize_program(const CallProgram& program,
                                const PlanOptions& plan) {
  OptimizeResult result{program, {}, false};
  // The optimizer transforms only what the verifier already accepts.
  if (verify_program(program, VerifyOptions{plan.config}).has_errors())
    return result;

  // The value domain of the current program, recomputed once per accepted
  // rewrite (frame ids shift) and reused for the final hints.
  ProgramDomain domain = analyze_domain(result.program);
  bool progress = false;
  // Proves `cand` against `plan_old` (the current program's plan).  On
  // acceptance the candidate becomes the current program and `record` is
  // logged, its tier replaced by `tier` when set; a refusal is counted.
  const auto admit = [&](const ProgramPlan& plan_old, Candidate&& cand,
                         RewriteRecord& record, const char* tier) {
    if (!prove_and_admit(plan_old, cand, plan, record)) {
      ++result.log.rejected;
      return false;
    }
    if (tier != nullptr) record.tier = tier;
    result.program = std::move(cand.program);
    domain = analyze_domain(result.program);
    accumulate(result.log, record);
    progress = true;
    return true;
  };

  for (int round = 0; round < kMaxRounds; ++round) {
    progress = false;
    // Refusals are recounted each round; the surviving value is the set of
    // candidates still refused at fixpoint.
    result.log.rejected = 0;

    for (const CallClass& cls : kCallClasses) {
      for (std::size_t i = 0; i < result.program.calls().size();) {
        std::string why;
        if (!cls.candidate(result.program, i, domain, why)) {
          ++i;
          continue;
        }
        RewriteRecord record;
        record.rule = cls.rule;
        record.kind = cls.kind;
        for (i32 k = 0; k < cls.span; ++k)
          record.calls.push_back(static_cast<i32>(i) + k);
        record.note = cls.note(result.program, i, why);
        // Accepted: stay at i, the call list shifted left under it.
        if (!admit(plan_program(result.program, plan),
                   cls.rewrite(result.program, i), record, cls.tier))
          ++i;
      }
    }

    // Reorders are monotone in Transferred words (the residency tier only
    // admits strict decreases), so re-deriving the sites after each
    // accepted hoist terminates.
    for (bool moved = true; moved;) {
      moved = false;
      const ProgramPlan plan_old = plan_program(result.program, plan);
      for (const ReorderSite& site :
           reorder_for_reuse_sites(result.program, plan_old)) {
        RewriteRecord record;
        record.rule = rules::kReorderForReuse;
        record.kind = "reorder";
        record.calls = {static_cast<i32>(site.call), site.resident_at};
        record.note = "hoisted call " + std::to_string(site.call) +
                      " after call " + std::to_string(site.resident_at) +
                      " to recover bank residency";
        if (admit(plan_old,
                  make_reorder(result.program, site.call, site.resident_at),
                  record, nullptr)) {
          moved = true;
          break;  // plan is stale after a hoist; re-derive the sites
        }
      }
    }
    // The aealloc schedule hint, tried only once the local hoist search is
    // dry: the allocator's Belady-policy order is a single whole-program
    // permutation candidate, admitted by the same residency proof — its
    // objective (offline-optimal eviction) and the proof's (the driver's
    // actual LRU) differ, so a hint can be refused.
    AllocOptions alloc_options;
    alloc_options.plan = plan;
    const ResidencyPlan hint =
        allocate_residency(result.program, alloc_options);
    if (hint.reordered) {
      Surgery s;
      s.order.assign(hint.schedule.begin(), hint.schedule.end());
      RewriteRecord record;
      record.rule = rules::kReorderForReuse;
      record.kind = "reorder";
      record.calls.assign(hint.schedule.begin(), hint.schedule.end());
      record.note = "adopted aealloc schedule hint (whole-order permutation)";
      admit(plan_program(result.program, plan),
            Candidate{apply_surgery(result.program, s), {},
                      /*permutation=*/true},
            record, nullptr);
    }

    if (!progress) break;
  }

  // Advisory clamp-elision hints ride on the final program: `domain` is the
  // emitted call sequence's own, so every bit-exact rewrite above is
  // already reflected in the intervals.
  apply_domain_hints(result.program, domain);

  result.changed = !result.log.records.empty();
  return result;
}

std::string rewrite_log_json(const RewriteLog& log) {
  std::ostringstream os;
  os << "{\"rewrites\":[";
  for (std::size_t i = 0; i < log.records.size(); ++i) {
    const RewriteRecord& r = log.records[i];
    if (i) os << ',';
    os << "{\"rule\":" << json_quote(r.rule)
       << ",\"kind\":" << json_quote(r.kind)
       << ",\"tier\":" << json_quote(r.tier) << ",\"calls\":[";
    for (std::size_t c = 0; c < r.calls.size(); ++c)
      os << (c ? "," : "") << r.calls[c];
    os << "],\"claimed_cycles\":{\"estimate\":" << r.claimed_cycles_delta
       << ",\"lower\":" << r.claimed_cycles_bound.lower
       << ",\"upper\":" << r.claimed_cycles_bound.upper << '}'
       << ",\"claimed_pci_words\":" << r.claimed_pci_words_delta
       << ",\"note\":" << json_quote(r.note) << '}';
  }
  os << "],\"claimed_cycles\":{\"estimate\":" << log.claimed_cycles_delta
     << ",\"lower\":" << log.claimed_cycles_bound.lower
     << ",\"upper\":" << log.claimed_cycles_bound.upper << '}'
     << ",\"claimed_pci_words\":" << log.claimed_pci_words_delta
     << ",\"applied\":" << log.records.size()
     << ",\"rejected\":" << log.rejected << '}';
  return os.str();
}

std::string format_rewrite_log(const RewriteLog& log) {
  std::ostringstream os;
  os << "aeopt: " << log.records.size() << " rewrite(s) applied, "
     << log.rejected << " refused; claimed ~" << log.claimed_cycles_delta
     << " cycles in [" << log.claimed_cycles_bound.lower << ", "
     << log.claimed_cycles_bound.upper << "], "
     << log.claimed_pci_words_delta << " PCI words\n";
  for (const RewriteRecord& r : log.records) {
    os << "  [" << r.rule << '/' << r.kind << '/' << r.tier << "] calls";
    for (const i32 c : r.calls) os << ' ' << c;
    os << ": " << r.note << " (~" << r.claimed_cycles_delta << " cycles, "
       << r.claimed_pci_words_delta << " PCI words)\n";
  }
  return os.str();
}

ProgramRunResult run_program(const CallProgram& program, alib::Backend& backend,
                             const std::vector<img::Image>& inputs) {
  std::vector<i32> order(program.calls().size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = static_cast<i32>(c);
  return run_program(
      program, order, inputs,
      [&backend](std::size_t, const ProgramCall& pc,
                 const std::vector<FrameHandle>& values) {
        const img::Image* b =
            pc.input_b == kNoFrame
                ? nullptr
                : values[static_cast<std::size_t>(pc.input_b)].get();
        return backend.execute(
            pc.call, *values[static_cast<std::size_t>(pc.input_a)], b);
      });
}

ProgramRunResult run_program(const CallProgram& program,
                             const std::vector<i32>& order,
                             const std::vector<img::Image>& inputs,
                             const ProgramStep& step) {
  const auto& frames = program.frames();
  // A frame's value is either a caller input, borrowed and never copied,
  // or a result this run moved into a buffer of its own.  Null: not
  // available yet.
  std::vector<FrameHandle> values(frames.size());
  const auto available = [&](i32 f) {
    return program.valid_frame(f) &&
           values[static_cast<std::size_t>(f)] != nullptr;
  };
  std::size_t next_input = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (frames[f].producer != kNoFrame) continue;
    AE_EXPECTS(next_input < inputs.size(),
               "run_program: fewer input images than external frames");
    AE_EXPECTS(inputs[next_input].size() == frames[f].size,
               "run_program: input image size mismatch for frame '" +
                   program.frame_name(static_cast<i32>(f)) + "'");
    values[f] = borrow_frame(inputs[next_input++]);
  }
  AE_EXPECTS(next_input == inputs.size(),
             "run_program: more input images than external frames");

  ProgramRunResult out;
  for (std::size_t p = 0; p < order.size(); ++p) {
    AE_EXPECTS(order[p] >= 0 &&
                   static_cast<std::size_t>(order[p]) < program.calls().size(),
               "run_program: execution order names no call");
    const ProgramCall& pc = program.calls()[static_cast<std::size_t>(order[p])];
    AE_EXPECTS(available(pc.input_a),
               "run_program: call reads an unavailable frame");
    AE_EXPECTS(pc.input_b == kNoFrame || available(pc.input_b),
               "run_program: call reads an unavailable second frame");
    alib::CallResult r = step(p, pc, values);
    out.side.merge(r.side);
    out.stats.merge(r.stats);
    out.segments.insert(out.segments.end(), r.segments.begin(),
                        r.segments.end());
    values[static_cast<std::size_t>(pc.output)] =
        std::make_shared<img::Image>(std::move(r.output));
  }
  const std::vector<i32>& declared = program.outputs();
  for (auto it = declared.begin(); it != declared.end(); ++it) {
    AE_EXPECTS(available(*it),
               "run_program: declared output was never produced");
    const FrameHandle& value = values[static_cast<std::size_t>(*it)];
    // Sole owner of a buffer the run made (non-const, above): moving out
    // of it is safe once no later mention reads it.
    if (value.use_count() == 1 &&
        std::find(it + 1, declared.end(), *it) == declared.end())
      out.outputs.push_back(
          std::move(*std::const_pointer_cast<img::Image>(value)));
    else
      out.outputs.push_back(*value);
  }
  return out;
}

}  // namespace ae::analysis
