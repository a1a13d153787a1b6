// CallProgram — the static representation of an AddressLib workload.
//
// A program is a sequence of calls over symbolic frames.  Frames are either
// external inputs (transferred from the host) or the outputs of earlier
// calls; calls reference them by integer id.  This is exactly the
// information a driver has *before* submitting anything to a backend, which
// is what lets `aeverify` run whole-program dataflow checks (use-before-
// write, bank-pair residency aliasing, segment id-space accounting) with no
// pixel data in hand.
//
// The builder is deliberately permissive: out-of-range or forward frame
// references are representable and are *diagnosed* by the verifier, not
// rejected at construction — a checker that cannot hold an ill-formed
// program cannot report on one.
#pragma once

#include <string>
#include <vector>

#include "addresslib/call.hpp"

namespace ae::analysis {

/// Frame reference used by calls; `kNoFrame` marks an absent second input.
inline constexpr i32 kNoFrame = -1;

struct FrameDecl {
  Size size{};
  i32 producer = kNoFrame;  ///< call index that outputs it; kNoFrame = external
  std::string name;         ///< for diagnostics ("a", "diff", "call3.out")
};

struct ProgramCall {
  alib::Call call;
  i32 input_a = kNoFrame;
  i32 input_b = kNoFrame;  ///< kNoFrame unless the call is inter
  i32 output = kNoFrame;   ///< frame id this call defines
};

class CallProgram {
 public:
  /// Declares an external input frame; returns its id.
  i32 add_input(Size size, std::string name = "");

  /// Appends a call reading frame `a` (and `b` for inter calls); declares
  /// and returns the id of the call's output frame.  Frame references are
  /// recorded as given — validity is the verifier's job.
  i32 add_call(alib::Call call, i32 a, i32 b = kNoFrame);

  /// Marks a frame as a program output (consumed by the host).  Liveness
  /// checking (rule AEV201) only runs on programs with declared outputs.
  void mark_output(i32 frame);

  const std::vector<FrameDecl>& frames() const { return frames_; }
  const std::vector<ProgramCall>& calls() const { return calls_; }
  const std::vector<i32>& outputs() const { return outputs_; }

  bool valid_frame(i32 id) const {
    return id >= 0 && id < static_cast<i32>(frames_.size());
  }
  /// Printable name of a frame reference (falls back to "#<id>").
  std::string frame_name(i32 id) const;

  /// Renames a frame (used by the text form to keep declared names).
  void set_frame_name(i32 id, std::string name);

  /// Overwrites call `index`'s clamp-free hint mask (the only call field
  /// mutable after add_call — analysis::apply_domain_hints writes the
  /// proofs it derived back onto the program).  Out-of-range indices are
  /// ignored.
  void set_call_clamp_free(i32 index, ChannelMask mask);

 private:
  std::vector<FrameDecl> frames_;
  std::vector<ProgramCall> calls_;
  std::vector<i32> outputs_;
};

/// True when `frame` is a declared program output (the host collects it).
bool is_program_output(const CallProgram& program, i32 frame);

/// Indices of the calls that read `frame` through either input.
std::vector<i32> consumers_of(const CallProgram& program, i32 frame);

}  // namespace ae::analysis
