// Shared fixtures and helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "addresslib/addresslib.hpp"
#include "addresslib/functional.hpp"
#include "analysis/optimizer.hpp"
#include "analysis/program.hpp"
#include "common/rng.hpp"
#include "image/compare.hpp"
#include "image/synth.hpp"

namespace ae::test {

/// A small strip-compatible frame (height and width multiples of 16) that
/// keeps the cycle simulator fast.
inline img::Image small_frame(u64 seed = 1) {
  return img::make_test_frame(Size{48, 32}, seed);
}

/// A second frame of the same size with different content.
inline img::Image small_frame_b(u64 seed = 2) {
  return img::make_test_frame(Size{48, 32}, seed);
}

/// Compares `actual` with the committed golden file `path`, reporting the
/// first diverging line rather than a wall of text.  With AE_UPDATE_GOLDEN
/// set in the environment it rewrites the file instead (docs/TESTING.md).
inline void check_golden_text(const std::string& path,
                              const std::string& actual) {
  if (std::getenv("AE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    SUCCEED() << "regenerated " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with AE_UPDATE_GOLDEN=1 to generate it";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (buffer.str() == actual) return;

  const auto lines_of = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  };
  const std::vector<std::string> want = lines_of(buffer.str());
  const std::vector<std::string> got = lines_of(actual);
  std::size_t first = 0;
  while (first < want.size() && first < got.size() &&
         want[first] == got[first])
    ++first;
  ADD_FAILURE() << "golden drift in " << path << " (" << want.size()
                << " -> " << got.size() << " lines)\n"
                << "  first divergence at line " << first + 1 << ":\n"
                << "    golden: "
                << (first < want.size() ? want[first] : "<end>")
                << "\n    actual: "
                << (first < got.size() ? got[first] : "<end>")
                << "\n  if this change is intentional, regenerate with "
                   "AE_UPDATE_GOLDEN=1 and commit the diff "
                   "(docs/TESTING.md).";
}

/// Asserts two images identical in the masked channels with a useful
/// message.
inline void expect_images_equal(const img::Image& a, const img::Image& b,
                                ChannelMask mask = ChannelMask::all()) {
  ASSERT_EQ(a.size(), b.size());
  const std::string diff = img::first_difference(a, b, mask);
  EXPECT_TRUE(diff.empty()) << "first difference at " << diff;
}

/// Asserts two call results bit-exact: output frame, every side-port
/// accumulator, and the segment-indexed table records.  The one assertion
/// every backend pair (software / engine sim / analytic / farm) must pass.
inline void expect_results_equal(const alib::CallResult& ref,
                                 const alib::CallResult& out,
                                 ChannelMask mask = ChannelMask::all()) {
  expect_images_equal(ref.output, out.output, mask);
  EXPECT_EQ(ref.side.sad, out.side.sad);
  EXPECT_EQ(ref.side.histogram, out.side.histogram);
  EXPECT_EQ(ref.side.gme, out.side.gme);
  EXPECT_EQ(ref.side.gme_affine, out.side.gme_affine);
  ASSERT_EQ(ref.segments.size(), out.segments.size());
  for (std::size_t i = 0; i < ref.segments.size(); ++i) {
    const alib::SegmentInfo& r = ref.segments[i];
    const alib::SegmentInfo& o = out.segments[i];
    EXPECT_EQ(r.id, o.id) << "segment " << i;
    EXPECT_EQ(r.pixel_count, o.pixel_count) << "segment " << i;
    EXPECT_EQ(r.geodesic_radius, o.geodesic_radius) << "segment " << i;
    EXPECT_EQ(r.sum_y, o.sum_y) << "segment " << i;
    EXPECT_TRUE(r.bbox == o.bbox) << "segment " << i << " bbox";
  }
}

/// One random test frame per external frame of `program`, in
/// frame-declaration order (what analysis::run_program binds them to).
inline std::vector<img::Image> external_inputs(
    const analysis::CallProgram& program, Rng& rng) {
  std::vector<img::Image> inputs;
  for (const analysis::FrameDecl& decl : program.frames())
    if (decl.producer == analysis::kNoFrame)
      inputs.push_back(img::make_test_frame(decl.size, rng.next_u64()));
  return inputs;
}

/// Asserts two whole-program runs observation-equivalent, the optimizer's
/// contract: declared outputs bit-exact in outputs() order, merged side
/// accumulators equal, segment records preserved keyed by id (reorders
/// permute their arrival order).
inline void expect_runs_equal(const analysis::ProgramRunResult& ref,
                              const analysis::ProgramRunResult& out) {
  ASSERT_EQ(ref.outputs.size(), out.outputs.size());
  for (std::size_t i = 0; i < ref.outputs.size(); ++i) {
    SCOPED_TRACE("output " + std::to_string(i));
    expect_images_equal(ref.outputs[i], out.outputs[i]);
  }
  EXPECT_EQ(ref.side.sad, out.side.sad);
  EXPECT_EQ(ref.side.histogram, out.side.histogram);
  EXPECT_EQ(ref.side.gme, out.side.gme);
  EXPECT_EQ(ref.side.gme_affine, out.side.gme_affine);
  auto sorted = [](std::vector<alib::SegmentInfo> s) {
    std::sort(s.begin(), s.end(),
              [](const alib::SegmentInfo& a, const alib::SegmentInfo& b) {
                return a.id < b.id;
              });
    return s;
  };
  const std::vector<alib::SegmentInfo> rs = sorted(ref.segments);
  const std::vector<alib::SegmentInfo> os = sorted(out.segments);
  ASSERT_EQ(rs.size(), os.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].id, os[i].id) << "segment " << i;
    EXPECT_EQ(rs[i].pixel_count, os[i].pixel_count) << "segment " << i;
    EXPECT_EQ(rs[i].sum_y, os[i].sum_y) << "segment " << i;
  }
}

/// The interpreter (alib::execute_functional) as a Backend: the oracle for
/// whole-program runs through backends that compute pixels on the kernels
/// (the farm, the sessions, SoftwareBackend), which a kernel-backed
/// reference could not check independently.
class InterpreterBackend : public alib::Backend {
 public:
  std::string name() const override { return "interpreter"; }
  alib::CallResult execute(const alib::Call& call, const img::Image& a,
                           const img::Image* b = nullptr) override {
    return alib::execute_functional(call, a, b);
  }
};

/// A representative set of intra calls covering every intra op.
std::vector<alib::Call> representative_intra_calls();

/// A representative set of inter calls covering every inter op.
std::vector<alib::Call> representative_inter_calls();

inline std::vector<alib::Call> representative_intra_calls() {
  using alib::Call;
  using alib::Neighborhood;
  using alib::OpParams;
  using alib::PixelOp;
  std::vector<Call> calls;
  calls.push_back(Call::make_intra(PixelOp::Copy, Neighborhood::con0()));
  {
    OpParams box;
    box.coeffs.assign(9, 1);
    box.shift = 3;  // sum of 9 ones >> 3 — deliberately not exact mean
    calls.push_back(Call::make_intra(PixelOp::Convolve, Neighborhood::con8(),
                                     ChannelMask::y(), ChannelMask::y(), box));
  }
  calls.push_back(
      Call::make_intra(PixelOp::GradientX, Neighborhood::con8()));
  calls.push_back(
      Call::make_intra(PixelOp::GradientY, Neighborhood::con8()));
  calls.push_back(
      Call::make_intra(PixelOp::GradientMag, Neighborhood::con8()));
  calls.push_back(
      Call::make_intra(PixelOp::MorphGradient, Neighborhood::con8()));
  calls.push_back(Call::make_intra(PixelOp::Erode, Neighborhood::con4()));
  calls.push_back(Call::make_intra(PixelOp::Dilate, Neighborhood::con4()));
  calls.push_back(Call::make_intra(PixelOp::Median, Neighborhood::con8()));
  {
    OpParams p;
    p.threshold = 128;
    calls.push_back(Call::make_intra(PixelOp::Threshold, Neighborhood::con0(),
                                     ChannelMask::y(), ChannelMask::y(), p));
  }
  {
    OpParams p;
    p.scale_num = 3;
    p.shift = 1;
    p.bias = 10;
    calls.push_back(Call::make_intra(PixelOp::Scale, Neighborhood::con0(),
                                     ChannelMask::y(), ChannelMask::y(), p));
  }
  {
    OpParams p;
    p.threshold = 24;
    calls.push_back(Call::make_intra(
        PixelOp::Homogeneity, Neighborhood::con8(), ChannelMask::yuv(),
        ChannelMask{ChannelMask::alfa().bits() | ChannelMask::aux().bits()},
        p));
  }
  calls.push_back(Call::make_intra(PixelOp::Histogram, Neighborhood::con0()));
  {
    OpParams p;
    p.table.resize(256);
    for (std::size_t i = 0; i < p.table.size(); ++i)
      p.table[i] = static_cast<u16>(255 - i);
    calls.push_back(Call::make_intra(PixelOp::TableLookup,
                                     Neighborhood::con0(),
                                     ChannelMask::alfa(), ChannelMask::alfa(),
                                     p));
  }
  // A worst-case perpendicular neighborhood (paper fig. 4).
  {
    OpParams fir;
    fir.coeffs = {1, 2, 4, 6, 8, 6, 4, 2, 1};
    fir.shift = 5;
    calls.push_back(Call::make_intra(PixelOp::Convolve, Neighborhood::vline(9),
                                     ChannelMask::y(), ChannelMask::y(), fir));
  }
  // Multi-channel variant (Table 2 row 4 shape).
  calls.push_back(Call::make_intra(PixelOp::MorphGradient,
                                   Neighborhood::con8(), ChannelMask::yuv(),
                                   ChannelMask::yuv()));
  return calls;
}

inline std::vector<alib::Call> representative_inter_calls() {
  using alib::Call;
  using alib::OpParams;
  using alib::PixelOp;
  std::vector<Call> calls;
  calls.push_back(Call::make_inter(PixelOp::Copy));
  calls.push_back(Call::make_inter(PixelOp::Add));
  calls.push_back(Call::make_inter(PixelOp::Sub));
  calls.push_back(Call::make_inter(PixelOp::AbsDiff));
  {
    OpParams p;
    p.shift = 8;
    calls.push_back(Call::make_inter(PixelOp::Mult, ChannelMask::y(),
                                     ChannelMask::y(), p));
  }
  calls.push_back(Call::make_inter(PixelOp::Min));
  calls.push_back(Call::make_inter(PixelOp::Max));
  calls.push_back(Call::make_inter(PixelOp::Average));
  calls.push_back(Call::make_inter(PixelOp::Sad));
  {
    OpParams p;
    p.threshold = 16;
    calls.push_back(Call::make_inter(PixelOp::DiffMask, ChannelMask::y(),
                                     ChannelMask::y(), p));
  }
  calls.push_back(Call::make_inter(PixelOp::AbsDiff, ChannelMask::yuv(),
                                   ChannelMask::yuv()));
  calls.push_back(Call::make_inter(PixelOp::BitAnd));
  calls.push_back(Call::make_inter(PixelOp::BitOr));
  calls.push_back(Call::make_inter(PixelOp::BitXor));
  return calls;
}

// ---- seeded random-call generator -----------------------------------------
//
// One generator for every differential/fuzz test: builds random *valid*
// calls across all four addressing schemes of the paper — interframe,
// intraframe, segment-based, and segment-indexed (the side table of segment
// calls) — plus random frame sizes mixing strip-aligned and awkward shapes.
// Deterministic per seed.

/// Random odd value in [1, max_odd].
inline i32 random_odd(Rng& rng, i32 max_odd) {
  return 1 + 2 * rng.uniform(0, (max_odd - 1) / 2);
}

inline alib::Neighborhood random_neighborhood(Rng& rng) {
  using alib::Neighborhood;
  switch (rng.bounded(6)) {
    case 0:
      return Neighborhood::con0();
    case 1:
      return Neighborhood::con4();
    case 2:
      return Neighborhood::con8();
    case 3:
      return Neighborhood::vline(random_odd(rng, 9));
    case 4:
      return Neighborhood::hline(random_odd(rng, 9));
    default:
      return Neighborhood::rect(random_odd(rng, 5), random_odd(rng, 5));
  }
}

inline ChannelMask random_video_mask(Rng& rng) {
  switch (rng.bounded(3)) {
    case 0:
      return ChannelMask::y();
    case 1:
      return ChannelMask::yuv();
    default:
      return ChannelMask::y().with(Channel::U);
  }
}

/// Mix of strip-aligned and awkward frame sizes.
inline Size random_frame_size(Rng& rng) {
  static const Size sizes[] = {{48, 32}, {33, 17}, {64, 48},
                               {16, 16}, {21, 40}, {96, 16}};
  return sizes[rng.bounded(6)];
}

/// Builds a random *valid* streamed (inter/intra) call; sets whether it
/// needs a second frame.
inline alib::Call random_streamed_call(Rng& rng, bool& needs_b) {
  using alib::Call;
  using alib::Neighborhood;
  using alib::OpParams;
  using alib::PixelOp;
  needs_b = rng.chance(0.4);
  if (needs_b) {
    static const PixelOp inter_ops[] = {
        PixelOp::Copy,     PixelOp::Add,    PixelOp::Sub,
        PixelOp::AbsDiff,  PixelOp::Mult,   PixelOp::Min,
        PixelOp::Max,      PixelOp::Average, PixelOp::Sad,
        PixelOp::DiffMask, PixelOp::BitAnd, PixelOp::BitOr,
        PixelOp::BitXor};
    const PixelOp op = inter_ops[rng.bounded(13)];
    OpParams p;
    p.shift = op == PixelOp::Mult ? rng.uniform(4, 8) : 0;
    p.threshold = rng.uniform(0, 64);
    const ChannelMask mask = random_video_mask(rng);
    Call c = Call::make_inter(op, mask, mask, p);
    c.scan = rng.chance(0.5) ? alib::ScanOrder::RowMajor
                             : alib::ScanOrder::ColumnMajor;
    return c;
  }
  static const PixelOp intra_ops[] = {
      PixelOp::Copy,      PixelOp::Convolve, PixelOp::MorphGradient,
      PixelOp::Erode,     PixelOp::Dilate,   PixelOp::Median,
      PixelOp::Threshold, PixelOp::Scale,    PixelOp::Histogram};
  const PixelOp op = intra_ops[rng.bounded(9)];
  alib::Neighborhood nbhd =
      op == PixelOp::Convolve || op == PixelOp::Median ||
              op == PixelOp::Erode || op == PixelOp::Dilate ||
              op == PixelOp::MorphGradient
          ? random_neighborhood(rng)
          : Neighborhood::con0();
  OpParams p;
  if (op == PixelOp::Convolve) {
    p.coeffs.resize(nbhd.size());
    for (auto& c : p.coeffs) c = rng.uniform(-4, 4);
    p.shift = rng.uniform(0, 3);
    p.bias = rng.uniform(-20, 20);
  }
  if (op == PixelOp::Scale) {
    p.scale_num = rng.uniform(1, 5);
    p.shift = rng.uniform(0, 2);
    p.bias = rng.uniform(-30, 30);
  }
  p.threshold = rng.uniform(0, 255);
  const ChannelMask mask = random_video_mask(rng);
  Call c = Call::make_intra(op, std::move(nbhd), mask, mask, p);
  c.scan = rng.chance(0.5) ? alib::ScanOrder::RowMajor
                           : alib::ScanOrder::ColumnMajor;
  c.border = rng.chance(0.3) ? alib::BorderPolicy::Constant
                             : alib::BorderPolicy::Replicate;
  c.params.border_constant =
      img::Pixel::gray(static_cast<u8>(rng.bounded(256)));
  return c;
}

/// Builds a random valid segment call for a frame of `size`.  Always
/// exercises the segment-indexed side table (every segment call accumulates
/// per-segment records); luma/chroma criteria, connectivity, seed count,
/// incremental labeling and id bases all vary.
inline alib::Call random_segment_call(Rng& rng, Size size) {
  alib::SegmentSpec spec;
  const int seeds = 1 + static_cast<int>(rng.bounded(4));
  for (int s = 0; s < seeds; ++s)
    spec.seeds.push_back(
        {rng.uniform(0, size.width - 1), rng.uniform(0, size.height - 1)});
  spec.luma_threshold = rng.uniform(0, 80);
  if (rng.chance(0.4)) spec.chroma_threshold = rng.uniform(0, 60);
  spec.connectivity = rng.chance(0.5) ? alib::Connectivity::Four
                                      : alib::Connectivity::Eight;
  spec.id_base = static_cast<alib::SegmentId>(rng.bounded(64));
  return alib::Call::make_segment(
      alib::PixelOp::Copy, alib::Neighborhood::con0(), spec, ChannelMask::y(),
      ChannelMask::y().with(Channel::Alfa));
}

/// One random call across any of the four addressing schemes (~20% are
/// segment calls, the rest streamed).  Sets `needs_b` for inter calls.
inline alib::Call random_any_call(Rng& rng, Size size, bool& needs_b) {
  if (rng.chance(0.2)) {
    needs_b = false;
    return random_segment_call(rng, size);
  }
  return random_streamed_call(rng, needs_b);
}

// ---- adversarial flood masks ------------------------------------------------
//
// Frame content shaped to hit the segment traversal's structural worst
// cases instead of random noise: claim-tie storms, maximal geodesic depth,
// zero-expansion floods, label barriers.  Shared by the segment unit tests
// and the kernel-vs-functional differential suite.

/// Checkerboard: adjacent pixels alternate between two luma values.  Under
/// 8-connectivity each color class is one diagonally connected lattice, so
/// seeds of opposite color interleave their claims across the whole frame
/// — nearly every admission is a tie between diagonal parents.  Under
/// 4-connectivity every like-valued pixel is isolated.
inline img::Image checkerboard_frame(Size size, u8 lo = 16, u8 hi = 200) {
  img::Image f(size);
  for (i32 y = 0; y < size.height; ++y) {
    for (i32 x = 0; x < size.width; ++x) {
      img::Pixel& p = f.ref(x, y);
      p.y = ((x ^ y) & 1) != 0 ? hi : lo;
      p.u = 128;
      p.v = 128;
    }
  }
  return f;
}

/// Spiral corridor: a single one-pixel-wide passable path carved inward
/// from (0, 0), arms separated by walls the luma criterion cannot cross.
/// A flood from the corridor mouth runs with a frontier of ~1 pixel to a
/// geodesic depth far beyond the frame dimensions.  The walk carves one
/// connected path, so its pixel count (returned through `path_pixels`) is
/// exactly the segment the flood must recover.
inline img::Image spiral_frame(Size size, i32* path_pixels = nullptr,
                               u8 path = 200, u8 wall = 16) {
  img::Pixel wall_px;
  wall_px.y = wall;
  wall_px.u = 128;
  wall_px.v = 128;
  img::Image f(size, wall_px);
  const auto carved = [&](Point p) { return f.ref(p.x, p.y).y == path; };
  static constexpr Point kDirs[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  Point pos{0, 0};
  f.ref(0, 0).y = path;
  i32 count = 1;
  i32 dir = 0;
  i32 turns = 0;
  while (turns < 4) {
    const Point d = kDirs[dir];
    const Point n{pos.x + d.x, pos.y + d.y};
    const Point n2{pos.x + 2 * d.x, pos.y + 2 * d.y};
    // Advance while the next cell is free and the cell beyond it is not an
    // earlier arm — that keeps a one-pixel wall between windings.
    if (!f.contains(n) || carved(n) || (f.contains(n2) && carved(n2))) {
      dir = (dir + 1) & 3;
      ++turns;
      continue;
    }
    turns = 0;
    pos = n;
    f.ref(n.x, n.y).y = path;
    ++count;
  }
  if (path_pixels != nullptr) *path_pixels = count;
  return f;
}

/// Every pixel of `size` as a seed, in scan order: the flood claims the
/// whole frame at seed-admission time and expands nothing.
inline std::vector<Point> all_pixel_seeds(Size size) {
  std::vector<Point> seeds;
  seeds.reserve(static_cast<std::size_t>(size.width) *
                static_cast<std::size_t>(size.height));
  for (i32 y = 0; y < size.height; ++y)
    for (i32 x = 0; x < size.width; ++x) seeds.push_back({x, y});
  return seeds;
}

/// A named adversarial segment call plus the frame that triggers it.
struct AdversarialFloodCase {
  const char* name;
  img::Image frame;
  alib::Call call;
};

/// The adversarial corpus: checkerboard tie storms under both
/// connectivities, the spiral corridor, an all-seed frame (with a
/// duplicate seed), and a label-barrier flood with a blocked seed.
inline std::vector<AdversarialFloodCase> adversarial_flood_cases() {
  using alib::Call;
  using alib::Connectivity;
  using alib::Neighborhood;
  using alib::PixelOp;
  using alib::SegmentSpec;
  std::vector<AdversarialFloodCase> cases;
  const Size size{48, 32};
  const ChannelMask out = ChannelMask::y().with(Channel::Alfa);
  {
    // Two opposite-color seeds interleave two lattice segments; the median
    // op exercises the sorting-network per-visit path on every claim.
    SegmentSpec spec;
    spec.seeds = {{0, 0}, {1, 0}};
    spec.luma_threshold = 10;
    spec.connectivity = Connectivity::Eight;
    cases.push_back({"checkerboard_con8_ties", checkerboard_frame(size),
                     Call::make_segment(PixelOp::Median, Neighborhood::con8(),
                                        spec, ChannelMask::y(), out)});
  }
  {
    // Under 4-connectivity every like-valued pixel is isolated: each seed
    // yields a single-pixel segment.
    SegmentSpec spec;
    spec.seeds = {{0, 0}, {5, 7}, {47, 31}, {20, 0}};
    spec.luma_threshold = 10;
    spec.connectivity = Connectivity::Four;
    cases.push_back({"checkerboard_con4_single_pixels",
                     checkerboard_frame(size),
                     Call::make_segment(PixelOp::Copy, Neighborhood::con0(),
                                        spec, ChannelMask::y(), out)});
  }
  {
    // Corridor flood: deep geodesic distances, tiny frontier, and claimed
    // runs of length ~1 — the deferred-apply splitter's worst case.  The
    // 5x5 median makes most of the small frame border-handled.
    SegmentSpec spec;
    spec.seeds = {{0, 0}};
    spec.luma_threshold = 10;
    cases.push_back({"spiral_corridor", spiral_frame(size),
                     Call::make_segment(PixelOp::Median,
                                        Neighborhood::rect(5, 5), spec,
                                        ChannelMask::y(), out)});
  }
  {
    // Every pixel a seed (plus one duplicate, which must yield an empty
    // segment) under a vacuous criterion: zero expansions, maximal
    // seed-admission and table-write traffic.
    SegmentSpec spec;
    spec.seeds = all_pixel_seeds(size);
    spec.seeds.push_back({0, 0});
    spec.luma_threshold = 255;
    cases.push_back({"all_pixels_seeded",
                     img::make_test_frame(size, 0xADF5u),
                     Call::make_segment(PixelOp::Copy, Neighborhood::con0(),
                                        spec, ChannelMask::y(), out)});
  }
  {
    // Incremental labeling: a pre-labeled stripe walls off the left edge
    // and blocks one seed outright (empty segment); the other seed floods
    // the rest of its lattice around the barrier.
    img::Image frame = checkerboard_frame(size);
    for (i32 y = 0; y < size.height; ++y)
      for (i32 x = 8; x < 10; ++x) frame.ref(x, y).alfa = 7;
    SegmentSpec spec;
    spec.seeds = {{8, 4}, {20, 10}};
    spec.luma_threshold = 10;
    spec.respect_existing_labels = true;
    spec.id_base = 7;
    cases.push_back({"label_barrier", std::move(frame),
                     Call::make_segment(PixelOp::Median, Neighborhood::con8(),
                                        spec, ChannelMask::y(), out)});
  }
  return cases;
}

// ---- fusion-biased program generator ---------------------------------------
//
// Multi-call CallPrograms whose dataflow is biased toward chains of
// pointwise (CON_0 intra) calls over shared frames — the shapes the aeopt
// fuse rewrite (analysis::optimize_program) targets — while still mixing in
// wide-neighborhood producers, inter calls, segment calls, dead results and
// host-collected intermediates so the optimizer's refusal paths run too.
// Deterministic per seed; every generated program passes aeverify clean.

/// Random pointwise (CON_0 intra) call: the consumer shapes fusion can
/// absorb as fused stages.  Histogram is included deliberately — it is
/// fusable (a CON_0 intra op) but makes the producing call ineligible for
/// dead-store elimination afterwards.
inline alib::Call random_pointwise_call(Rng& rng) {
  using alib::Call;
  using alib::Neighborhood;
  using alib::OpParams;
  using alib::PixelOp;
  static const PixelOp ops[] = {PixelOp::Copy, PixelOp::Threshold,
                                PixelOp::Scale, PixelOp::Histogram};
  const PixelOp op = ops[rng.bounded(4)];
  OpParams p;
  p.threshold = rng.uniform(0, 255);
  if (op == PixelOp::Scale) {
    p.scale_num = rng.uniform(1, 5);
    p.shift = rng.uniform(0, 2);
    p.bias = rng.uniform(-30, 30);
  }
  const ChannelMask mask = random_video_mask(rng);
  return Call::make_intra(op, Neighborhood::con0(), mask, mask, p);
}

/// A random verifier-clean program of 2..max_calls calls over one frame
/// size, ~2/3 of whose calls extend a pointwise chain off the previous
/// result.  Occasionally marks a mid-chain result as a program output —
/// a frame the fuse rewrite must then refuse to absorb.
inline analysis::CallProgram random_fusion_biased_program(Rng& rng,
                                                          int max_calls = 8) {
  analysis::CallProgram program;
  const Size size = random_frame_size(rng);
  std::vector<i32> frames;
  frames.push_back(program.add_input(size, "a"));
  if (rng.chance(0.5)) frames.push_back(program.add_input(size, "b"));
  const int n = 2 + static_cast<int>(rng.bounded(
                        static_cast<u32>(max_calls > 2 ? max_calls - 1 : 1)));
  i32 prev = frames.front();
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.65)) {
      prev = program.add_call(random_pointwise_call(rng), prev);
    } else {
      bool needs_b = false;
      alib::Call call = random_any_call(rng, size, needs_b);
      const i32 a = frames[rng.bounded(static_cast<u32>(frames.size()))];
      i32 b = analysis::kNoFrame;
      if (needs_b) {
        if (frames.size() < 2) {
          call = random_pointwise_call(rng);  // no distinct second frame yet
        } else {
          do {
            b = frames[rng.bounded(static_cast<u32>(frames.size()))];
          } while (b == a);  // same-frame inter pairs are AEV210 errors
        }
      }
      prev = program.add_call(std::move(call), a, b);
    }
    frames.push_back(prev);
  }
  program.mark_output(prev);
  // Occasionally the host also collects a mid-chain result, breaking that
  // link's fusability (program outputs are observable).
  if (rng.chance(0.3) && frames.size() > 3)
    program.mark_output(
        frames[1 + rng.bounded(static_cast<u32>(frames.size()) - 2)]);
  return program;
}

// ---- seeded known-bad call generator ---------------------------------------
//
// The flip side of random_any_call: deliberately ill-formed calls, each
// tagged with the aeverify rule the static verifier must flag as an error.
// Every case is also rejected dynamically — by validate_call, by the
// engine's validate_frame, or by segment-id exhaustion mid-expansion — so
// the differential suite can assert the static pass strictly pre-empts the
// dynamic failures.

struct BadCall {
  alib::Call call;
  Size size{48, 32};         ///< first input frame size
  Size size_b{48, 32};       ///< second input frame size (when passed)
  bool pass_b = false;       ///< hand the backend a second frame
  const char* rule_id = "";  ///< rule aeverify must report as an error
  const char* what = "";     ///< case label for SCOPED_TRACE
};

/// One ill-formed call per covered rule (seeded parameter jitter keeps the
/// exact offending values varying across seeds while every case stays in
/// its rule class).
inline std::vector<BadCall> known_bad_calls(Rng& rng) {
  using alib::Call;
  using alib::Neighborhood;
  using alib::OpParams;
  using alib::PixelOp;
  std::vector<BadCall> cases;

  {  // Inter-only op forced through intra addressing.
    BadCall c;
    c.call = Call::make_intra(PixelOp::AbsDiff, Neighborhood::con0());
    c.rule_id = "AEV100";
    c.what = "intra call with an inter-only op";
    cases.push_back(std::move(c));
  }
  {  // Segment expansion over an op outside the intra set.
    BadCall c;
    alib::SegmentSpec spec;
    spec.seeds.push_back({rng.uniform(0, 47), rng.uniform(0, 31)});
    spec.luma_threshold = rng.uniform(0, 40);
    c.call = Call::make_segment(PixelOp::Add, Neighborhood::con0(), spec,
                                ChannelMask::y(),
                                ChannelMask::y().with(Channel::Alfa));
    c.rule_id = "AEV100";
    c.what = "segment call with an inter-only op";
    cases.push_back(std::move(c));
  }
  {  // Inter call starved of its second frame.
    BadCall c;
    c.call = Call::make_inter(PixelOp::Add);
    c.pass_b = false;
    c.rule_id = "AEV101";
    c.what = "inter call without a second frame";
    cases.push_back(std::move(c));
  }
  {  // Mismatched bank pairs.
    BadCall c;
    c.call = Call::make_inter(PixelOp::AbsDiff);
    c.pass_b = true;
    c.size_b = Size{33, 17};
    c.rule_id = "AEV102";
    c.what = "inter call with differently sized frames";
    cases.push_back(std::move(c));
  }
  {  // Homogeneity needs the Alfa+Aux output planes.
    BadCall c;
    OpParams p;
    p.threshold = rng.uniform(1, 64);
    c.call = Call::make_intra(PixelOp::Homogeneity, Neighborhood::con8(),
                              ChannelMask::yuv(), ChannelMask::y(), p);
    c.rule_id = "AEV103";
    c.what = "Homogeneity without the Alfa/Aux output mask";
    cases.push_back(std::move(c));
  }
  {  // Convolve coefficient arity off the neighborhood size.
    BadCall c;
    OpParams p;
    p.coeffs.assign(3, rng.uniform(-4, 4));
    c.call = Call::make_intra(PixelOp::Convolve, Neighborhood::con8(),
                              ChannelMask::y(), ChannelMask::y(), p);
    c.rule_id = "AEV104";
    c.what = "Convolve with 3 coefficients on CON_8";
    cases.push_back(std::move(c));
  }
  {  // Shift outside the 5-bit barrel-shifter range.
    BadCall c;
    OpParams p;
    p.shift = 32 + static_cast<i32>(rng.bounded(8));
    c.call = Call::make_inter(PixelOp::Mult, ChannelMask::y(),
                              ChannelMask::y(), p);
    c.pass_b = true;
    c.rule_id = "AEV104";
    c.what = "shift beyond the barrel shifter";
    cases.push_back(std::move(c));
  }
  {  // Frame wider than the engine's line-buffer sizing.
    BadCall c;
    c.call = Call::make_intra(PixelOp::Copy, Neighborhood::con0());
    c.size = Size{480, 320};
    c.rule_id = "AEV108";
    c.what = "frame exceeds the line-buffer sizing";
    cases.push_back(std::move(c));
  }
  {  // Seed outside the frame.
    BadCall c;
    c.call = random_segment_call(rng, Size{48, 32});
    c.call.segment.seeds[0] = Point{48 + rng.uniform(1, 20), 5};
    c.rule_id = "AEV109";
    c.what = "segment seed outside the frame";
    cases.push_back(std::move(c));
  }
  {  // Negative luma threshold.
    BadCall c;
    c.call = random_segment_call(rng, Size{48, 32});
    c.call.segment.luma_threshold = -rng.uniform(1, 50);
    c.rule_id = "AEV109";
    c.what = "negative segment luma threshold";
    cases.push_back(std::move(c));
  }
  {  // Seeds that can run the 16-bit id space over the top.
    BadCall c;
    alib::SegmentSpec spec;
    spec.seeds = {{0, 0}, {47, 0}, {0, 31}, {47, 31}};
    spec.luma_threshold = 0;  // random content: every seed labels on its own
    spec.id_base = static_cast<alib::SegmentId>(0xFFFD);
    c.call = Call::make_segment(PixelOp::Copy, Neighborhood::con0(), spec,
                                ChannelMask::y(),
                                ChannelMask::y().with(Channel::Alfa));
    c.rule_id = "AEV110";
    c.what = "segment id allocation past the 16-bit table";
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace ae::test
