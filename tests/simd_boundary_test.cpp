// Boundary-value audit of the saturating/wrapping u16 arithmetic behind the
// pointwise kernels: the SIMD lane primitives (kernels/simd.hpp) and every
// pointwise op are swept through the domain extremes — 0/1/65534/65535 on
// the 16-bit side channels, 0/1/254/255 on the 8-bit video channels — and
// held to a wide-integer reference (lanes) and the functional interpreter
// (kernels).
//
// tests/CMakeLists.txt builds this file twice: once against the host's
// vector ISA (SSE2 on x86-64, NEON on aarch64) and once with
// AE_SIMD_FORCE_SCALAR, so the vector and scalar lowerings of simd.hpp are
// both pinned at the extremes (the third target is whichever of the two the
// build host does not select natively).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "addresslib/functional.hpp"
#include "addresslib/kernels/frame_hash.hpp"
#include "addresslib/kernels/kernel_backend.hpp"
#include "addresslib/kernels/simd.hpp"
#include "common/parallel.hpp"
#include "image/synth.hpp"
#include "test_util.hpp"

namespace ae {
namespace {

using alib::Call;
using alib::Neighborhood;
using alib::PixelOp;
namespace simd = alib::kern::simd;

// The 8 u16 boundary values fill one vector exactly: saturation points,
// their neighbors, and the sign-bit edge of the epi16 instructions.
constexpr u16 kBounds[simd::kU16Lanes] = {0,      1,      2,      0x7FFF,
                                          0x8000, 0xFFFE, 0xFFFF, 42};

/// u8-channel boundary cycle and u16-channel boundary cycle for frames.
constexpr u16 kVideoBounds[] = {0, 1, 254, 255};
constexpr u16 kSideBounds[] = {0, 1, 65534, 65535};

// ---- lane primitives vs the wide-integer reference -------------------------

TEST(SimdBoundary, LanePrimitivesMatchTheWideReference) {
  // Rotating one operand against the other covers all 64 boundary pairs
  // while every lane stays independent.
  for (int rot = 0; rot < simd::kU16Lanes; ++rot) {
    alignas(16) u16 la[simd::kU16Lanes];
    alignas(16) u16 lb[simd::kU16Lanes];
    for (int i = 0; i < simd::kU16Lanes; ++i) {
      la[i] = kBounds[i];
      lb[i] = kBounds[(i + rot) % simd::kU16Lanes];
    }
    const simd::U16x8 va = simd::load(la);
    const simd::U16x8 vb = simd::load(lb);

    const auto check = [&](const char* name, simd::U16x8 got,
                           auto&& reference) {
      alignas(16) u16 lanes[simd::kU16Lanes];
      simd::store(lanes, got);
      for (int i = 0; i < simd::kU16Lanes; ++i) {
        const u32 a = la[i];
        const u32 b = lb[i];
        EXPECT_EQ(lanes[i], reference(a, b))
            << name << "(" << a << ", " << b << ") lane " << i;
      }
    };

    check("add", simd::add(va, vb),
          [](u32 a, u32 b) { return static_cast<u16>(a + b); });
    check("sub", simd::sub(va, vb),
          [](u32 a, u32 b) { return static_cast<u16>(a - b); });
    check("adds", simd::adds(va, vb), [](u32 a, u32 b) {
      return static_cast<u16>(std::min<u32>(a + b, 0xFFFFu));
    });
    check("subs", simd::subs(va, vb), [](u32 a, u32 b) {
      return static_cast<u16>(a > b ? a - b : 0);
    });
    check("mullo", simd::mullo(va, vb),
          [](u32 a, u32 b) { return static_cast<u16>(a * b); });
    check("min", simd::min(va, vb),
          [](u32 a, u32 b) { return static_cast<u16>(std::min(a, b)); });
    check("max", simd::max(va, vb),
          [](u32 a, u32 b) { return static_cast<u16>(std::max(a, b)); });
    for (const i32 count : {0, 1, 7, 8, 15}) {
      check(("shr" + std::to_string(count)).c_str(), simd::shr(va, count),
            [count](u32 a, u32) { return static_cast<u16>(a >> count); });
    }
  }
}

// ---- pointwise kernels at the channel extremes -----------------------------

/// A frame whose channels cycle through their boundary values with
/// different strides, so neighboring pixels (and the paired frame below)
/// hit every boundary combination.
img::Image boundary_frame(Size size, int phase) {
  img::Image frame(size);
  int i = phase;
  for (i32 y = 0; y < size.height; ++y) {
    for (i32 x = 0; x < size.width; ++x, ++i) {
      img::Pixel& p = frame.at(x, y);
      p.set(Channel::Y, static_cast<u16>(kVideoBounds[i % 4]));
      p.set(Channel::U, static_cast<u16>(kVideoBounds[(i / 2) % 4]));
      p.set(Channel::V, static_cast<u16>(kVideoBounds[(i / 4) % 4]));
      p.set(Channel::Alfa, kSideBounds[i % 4]);
      p.set(Channel::Aux, kSideBounds[(i / 3) % 4]);
    }
  }
  return frame;
}

TEST(SimdBoundary, PointwiseOpsAtChannelExtremesAreBitExact) {
  par::ThreadPool pool(2);
  const alib::KernelBackend kernels({&pool, 8});
  // 41 is coprime to every cycle stride above: the a/b pairing drifts
  // through all boundary combinations.
  const Size size{41, 16};
  const img::Image a = boundary_frame(size, 0);
  const img::Image b = boundary_frame(size, 7);

  const ChannelMask all = ChannelMask::all();
  std::vector<Call> calls = test::representative_inter_calls();
  // The representative set sticks to video masks; the side channels are
  // where the u16 extremes live, so sweep the saturating ops on them too.
  calls.push_back(Call::make_inter(PixelOp::Add, all, all));
  calls.push_back(Call::make_inter(PixelOp::Sub, all, all));
  calls.push_back(Call::make_inter(PixelOp::AbsDiff, all, all));
  calls.push_back(Call::make_inter(PixelOp::Min, all, all));
  calls.push_back(Call::make_inter(PixelOp::Max, all, all));
  calls.push_back(Call::make_inter(PixelOp::Average, all, all));
  {
    alib::OpParams p;
    p.shift = 8;
    calls.push_back(Call::make_inter(PixelOp::Mult, all, all, p));
  }
  calls.push_back(Call::make_inter(PixelOp::BitAnd, all, all));
  calls.push_back(Call::make_inter(PixelOp::BitOr, all, all));
  calls.push_back(Call::make_inter(PixelOp::BitXor, all, all));

  for (const Call& call : calls) {
    SCOPED_TRACE(call.describe());
    test::expect_results_equal(alib::execute_functional(call, a, &b),
                               kernels.execute(call, a, &b));
  }

  std::vector<Call> intra = test::representative_intra_calls();
  {
    alib::OpParams p;
    p.scale_num = 5;
    p.shift = 1;
    p.bias = -7;
    intra.push_back(Call::make_intra(PixelOp::Scale, Neighborhood::con0(),
                                     all, all, p));
  }
  intra.push_back(
      Call::make_intra(PixelOp::Median, Neighborhood::con8(), all, all));
  for (const Call& call : intra) {
    SCOPED_TRACE(call.describe());
    test::expect_results_equal(alib::execute_functional(call, a),
                               kernels.execute(call, a));
  }
}

// ---- clamp-free lowerings at the extremes ----------------------------------

/// Runs `call` with `clamp_free` stamped on and asserts the clamp-free
/// kernel lowering is bit-exact against the always-clamping interpreter.
/// Callers pick operand frames where the proof obligation (raw result in
/// [0, channel max]) actually holds at the extremes.
void expect_clamp_free_exact(const alib::KernelBackend& kernels, Call call,
                             ChannelMask proof, const img::Image& a,
                             const img::Image* b) {
  SCOPED_TRACE(call.describe());
  const alib::CallResult ref = alib::execute_functional(call, a, b);
  call.clamp_free = proof;
  test::expect_results_equal(ref, kernels.execute(call, a, b));
}

TEST(SimdBoundary, ClampFreeKernelsAreExactWhereTheProofHolds) {
  par::ThreadPool pool(2);
  const alib::KernelBackend kernels({&pool, 8});
  const Size size{41, 16};
  const ChannelMask all = ChannelMask::all();
  const img::Image extremes = boundary_frame(size, 0);

  // Add with b == 0 everywhere: raw = a, in range even at 65535.  (The
  // default Pixel centers chroma at 128, so zero every channel explicitly.)
  img::Image zeros(size, img::Pixel::from_words(0, 0));
  expect_clamp_free_exact(kernels, Call::make_inter(PixelOp::Add, all, all),
                          all, extremes, &zeros);

  // Sub with b == a (content-equal frame): raw = 0 on every channel.
  const img::Image same = boundary_frame(size, 0);
  expect_clamp_free_exact(kernels, Call::make_inter(PixelOp::Sub, all, all),
                          all, extremes, &same);

  // 8-bit Mult >> 8: raw peak 255*255 >> 8 = 254 — the SIMD mullo path.
  {
    alib::OpParams p;
    p.shift = 8;
    const img::Image other = boundary_frame(size, 5);
    expect_clamp_free_exact(
        kernels,
        Call::make_inter(PixelOp::Mult, ChannelMask::yuv(),
                         ChannelMask::yuv(), p),
        ChannelMask::yuv(), extremes, &other);
  }

  // 16-bit Mult with b == 1, shift 0: raw = a up to 65535 — the scalar
  // clamp-free path, where u16*u16 int promotion would overflow without
  // the kernels' explicit u32 widening.
  {
    img::Image ones(size);
    for (i32 y = 0; y < size.height; ++y)
      for (i32 x = 0; x < size.width; ++x)
        for (int ci = 0; ci < kChannelCount; ++ci)
          ones.at(x, y).set(static_cast<Channel>(ci), 1);
    expect_clamp_free_exact(kernels, Call::make_inter(PixelOp::Mult, all, all),
                            all, extremes, &ones);
  }

  // Intra Scale x1 >> 1: raw peak 32767 on the side channels, 127 on video.
  {
    alib::OpParams p;
    p.scale_num = 1;
    p.shift = 1;
    expect_clamp_free_exact(
        kernels,
        Call::make_intra(PixelOp::Scale, Neighborhood::con0(), all, all, p),
        all, extremes, nullptr);
  }

  // Convolve, box of 9 ones >> 5: raw peak 9*65535 >> 5 = 18432 — the
  // accumulator path with the clamp proven dead.
  {
    alib::OpParams p;
    p.coeffs.assign(9, 1);
    p.shift = 5;
    expect_clamp_free_exact(
        kernels,
        Call::make_intra(PixelOp::Convolve, Neighborhood::con8(), all, all,
                         p),
        all, extremes, nullptr);
  }
}

// ---- frame content hash: u64 lanes and golden keys ------------------------

TEST(SimdBoundary, U64LanePrimitivesMatchTheWideReference) {
  constexpr u64 kWide[] = {0,           1,           0xFFFFFFFFull,
                           1ull << 32,  ~u64{0},     0x8000000000000000ull,
                           0x123456789ABCDEF0ull};
  for (const u64 a : kWide) {
    for (const u64 b : kWide) {
      u64 lanes[2];
      const auto check = [&](const char* name, simd::U64x2 got, u64 want) {
        simd::store(lanes, got);
        EXPECT_EQ(lanes[0], want) << name << " " << a << " " << b;
        EXPECT_EQ(lanes[1], want) << name << " " << a << " " << b;
      };
      const simd::U64x2 va = simd::make64(a, a);
      const simd::U64x2 vb = simd::make64(b, b);
      check("add", simd::add(va, vb), a + b);
      check("xor", simd::bit_xor(va, vb), a ^ b);
      check("and", simd::bit_and(va, vb), a & b);
      check("mul32", simd::mul32(va, vb),
            (a & 0xFFFFFFFFull) * (b & 0xFFFFFFFFull));
      check("shr47", simd::shr64<47>(va), a >> 47);
      check("shl32", simd::shl64<32>(va), a << 32);
    }
  }
  // Unaligned little-endian load: lane 0 is bytes 1..8, lane 1 bytes 9..16.
  u8 bytes[17];
  for (int i = 0; i < 17; ++i) bytes[i] = static_cast<u8>(i);
  u64 lanes[2];
  simd::store(lanes, simd::load64(bytes + 1));
  EXPECT_EQ(lanes[0], 0x0807060504030201ull);
  EXPECT_EQ(lanes[1], 0x100F0E0D0C0B0A09ull);
}

// The same constants in the vector build and its forced-scalar twin: the
// SSE2, NEON and scalar lowerings of frame_hash agree.  A CIF frame is all
// full 8-pixel stripes; a 7x3 frame is all scalar tail.
TEST(SimdBoundary, FrameHashGoldenKeys) {
  EXPECT_EQ(alib::kern::frame_hash(img::make_test_frame(Size{352, 288}, 1)),
            0x80A83462D3522B05ull);
  EXPECT_EQ(alib::kern::frame_hash(img::make_test_frame(Size{7, 3}, 1)),
            0x08F91B97806BF7E8ull);
}

}  // namespace
}  // namespace ae
