#include "analysis/program.hpp"

#include <algorithm>

namespace ae::analysis {

i32 CallProgram::add_input(Size size, std::string name) {
  const auto id = static_cast<i32>(frames_.size());
  if (name.empty()) name = "in" + std::to_string(id);
  frames_.push_back(FrameDecl{size, kNoFrame, std::move(name)});
  return id;
}

i32 CallProgram::add_call(alib::Call call, i32 a, i32 b) {
  const auto call_index = static_cast<i32>(calls_.size());
  const auto out = static_cast<i32>(frames_.size());
  // The output inherits the first input's declared size (the AddressLib
  // contract: one output pixel per input pixel).  An invalid input
  // reference leaves the output size empty; the verifier reports the
  // reference itself, not the knock-on sizes.
  const Size out_size = valid_frame(a) ? frames_[static_cast<std::size_t>(a)].size
                                       : Size{};
  frames_.push_back(FrameDecl{out_size, call_index,
                              "call" + std::to_string(call_index) + ".out"});
  calls_.push_back(ProgramCall{std::move(call), a, b, out});
  return out;
}

void CallProgram::mark_output(i32 frame) { outputs_.push_back(frame); }

void CallProgram::set_call_clamp_free(i32 index, ChannelMask mask) {
  if (index < 0 || index >= static_cast<i32>(calls_.size())) return;
  calls_[static_cast<std::size_t>(index)].call.clamp_free = mask;
}

void CallProgram::set_frame_name(i32 id, std::string name) {
  if (valid_frame(id)) frames_[static_cast<std::size_t>(id)].name =
      std::move(name);
}

std::string CallProgram::frame_name(i32 id) const {
  if (valid_frame(id)) {
    const FrameDecl& f = frames_[static_cast<std::size_t>(id)];
    if (!f.name.empty()) return f.name;
  }
  // Built char-by-char: GCC 12's -Wrestrict misfires on the
  // literal + to_string temporary chain under -O2.
  std::string out(1, '#');
  out += std::to_string(id);
  return out;
}

bool is_program_output(const CallProgram& program, i32 frame) {
  const std::vector<i32>& outs = program.outputs();
  return std::find(outs.begin(), outs.end(), frame) != outs.end();
}

std::vector<i32> consumers_of(const CallProgram& program, i32 frame) {
  std::vector<i32> out;
  for (std::size_t i = 0; i < program.calls().size(); ++i) {
    const ProgramCall& pc = program.calls()[i];
    if (pc.input_a == frame || pc.input_b == frame)
      out.push_back(static_cast<i32>(i));
  }
  return out;
}

}  // namespace ae::analysis
