// aeopt golden decisions (tier1): for 200 seeded fusion-biased programs the
// optimizer's full RewriteLog (every record, its tier and claims, and the
// refusal count) plus a digest of the emitted program and its clamp-free
// hints are pinned to a committed file.  A refactor of the rewrite loop
// must reproduce every decision byte for byte; a deliberate change to what
// aeopt rewrites shows up here as a readable per-seed diff.
//
// Updating on an *intentional* rewrite change:
//
//   AE_UPDATE_GOLDEN=1 ./build/tests/optimizer_golden_test
//
// rewrites tests/golden/aeopt_fusion_biased.golden in the source tree;
// review the diff and commit it with the change that caused it
// (docs/TESTING.md).
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "analysis/optimizer.hpp"
#include "analysis/program_text.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

#ifndef AE_GOLDEN_DIR
#error "build must define AE_GOLDEN_DIR"
#endif

/// FNV-1a over the program's text form: a stable, platform-independent
/// fingerprint of the emitted call sequence.
u64 fnv1a(const std::string& text) {
  u64 h = 0xCBF29CE484222325ull;
  for (const char c : text) {
    h ^= static_cast<u8>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// One line per seed: the program digest, the per-call clamp-free hint
/// masks (advisory, so absent from the text form), and the rewrite log.
std::string decision_line(u64 seed, const analysis::OptimizeResult& opt) {
  std::ostringstream os;
  os << "seed " << seed << " program " << std::hex << std::setw(16)
     << std::setfill('0') << fnv1a(analysis::format_program(opt.program))
     << std::dec << " hints";
  for (const analysis::ProgramCall& pc : opt.program.calls())
    os << ' ' << static_cast<int>(pc.call.clamp_free.bits());
  os << " log " << analysis::rewrite_log_json(opt.log);
  return os.str();
}

TEST(OptimizerGolden, FusionBiasedDecisionsArePinned) {
  std::ostringstream actual;
  int changed = 0;
  for (u64 seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x60ADu);
    const analysis::CallProgram program =
        test::random_fusion_biased_program(rng);
    const analysis::OptimizeResult opt = analysis::optimize_program(program);
    if (opt.changed) ++changed;
    actual << decision_line(seed, opt) << '\n';
  }
  // The corpus must actually exercise the rewriter.
  EXPECT_GT(changed, 50);

  test::check_golden_text(
      std::string(AE_GOLDEN_DIR) + "/aeopt_fusion_biased.golden",
      actual.str());
}

}  // namespace
}  // namespace ae
