// aeverify — static verification of AddressLib call programs.
//
// The verifier runs every check a backend would perform dynamically —
// plus the whole-program dataflow checks no single backend can see — before
// any pixel is transferred.  It never throws on ill-formed input; findings
// come back as a Report keyed by the rule catalog (rules.hpp).  The guard
// layers (EngineSession / ResilientSession / EngineFarm with
// `validate_before_execute`) call `enforce()` to turn errors into a typed
// VerificationError instead of letting the program trip AE_EXPECTS asserts
// deep inside the simulator.
#pragma once

#include "analysis/diagnostic.hpp"
#include "analysis/program.hpp"
#include "core/config.hpp"

namespace ae::analysis {

struct VerifyOptions {
  /// Engine model the program is checked against (strip/IIM sizing, line
  /// buffers, ZBT capacity).  Defaults to the prototype board.
  core::EngineConfig config{};
};

/// Verifies a single call against its input frame geometry.  `b` is the
/// second input's size for inter calls (nullptr otherwise); `inputs_alias`
/// tells the verifier both inputs are the same on-board frame — the
/// duplicate-slot residency condition (AEV210).
Report verify_call(const alib::Call& call, Size a, const Size* b,
                   bool inputs_alias, const VerifyOptions& options = {});

/// Verifies a whole program: every call individually plus the dataflow
/// checks (use-before-write, dead results, duplicate-slot aliasing, segment
/// id-space accounting).
Report verify_program(const CallProgram& program,
                      const VerifyOptions& options = {});

/// Throws VerificationError if the report contains errors; returns
/// otherwise.  The guard-layer entry point.
void enforce(const Report& report);

}  // namespace ae::analysis
