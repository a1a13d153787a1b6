// Property tests of the sorting-network median lowering (row_kernels.hpp /
// intra_kernels.cpp): the pruned Batcher networks and the hand-coded 9-tap
// network must select exactly the value std::nth_element places at taps/2,
// for every supported window size, and the kernel backend's median path
// must be bit-exact with the interpreter across channel masks (u8 video
// channels and full-range u16 side channels) including the border path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "addresslib/kernels/kernel_backend.hpp"
#include "addresslib/kernels/row_kernels.hpp"
#include "test_util.hpp"

namespace ae::alib {
namespace {

/// Evaluates a median network on one scalar tap vector — the same step
/// semantics the row kernel applies per SIMD lane (intra_kernels.cpp).
u16 run_network(const kern::MedianNetwork& net, std::vector<u16> v) {
  for (const kern::MedianStep st : net.steps) {
    u16& a = v[st.lo];
    u16& b = v[st.hi];
    const u16 mn = a < b ? a : b;
    const u16 mx = a < b ? b : a;
    switch (st.kind) {
      case kern::MedianStepKind::Exchange:
        a = mn;
        b = mx;
        break;
      case kern::MedianStepKind::MinInto:
        a = mn;
        break;
      case kern::MedianStepKind::MaxInto:
        b = mx;
        break;
    }
  }
  return v[static_cast<std::size_t>(net.median_index)];
}

u16 ref_median(std::vector<u16> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// 0-1 principle: a network of monotone min/max gates computes an order
// statistic for every input iff it computes it for every 0-1 input (the
// classical Knuth 5.3.4 argument applies to selection, not just sorting).
// Exhaustive through 15 taps — this covers the hand-coded 9-tap network
// and pruned Batcher networks on both sides of it, and therefore PROVES
// those networks correct for all u16 inputs.
TEST(MedianNetwork, ZeroOnePrincipleExhaustiveThroughFifteenTaps) {
  for (i32 taps = 1; taps <= 15; ++taps) {
    const kern::MedianNetwork& net = kern::median_network(taps);
    ASSERT_EQ(net.taps, taps);
    ASSERT_EQ(net.median_index, taps / 2);
    for (u32 mask = 0; mask < (u32{1} << taps); ++mask) {
      std::vector<u16> v(static_cast<std::size_t>(taps));
      for (i32 i = 0; i < taps; ++i) v[static_cast<std::size_t>(i)] =
          static_cast<u16>((mask >> i) & 1);
      ASSERT_EQ(run_network(net, v), ref_median(v))
          << taps << " taps, 0-1 mask " << mask;
    }
  }
}

// Every supported tap count (1..81: any rect window up to 9x9), random
// full-range u16 vectors alternating with tie-heavy tiny alphabets (ties
// are where a wrong exchange order would surface).
TEST(MedianNetwork, MatchesNthElementForEverySupportedTapCount) {
  Rng rng(0x9E37u);
  for (i32 taps = 1; taps <= 81; ++taps) {
    const kern::MedianNetwork& net = kern::median_network(taps);
    ASSERT_EQ(net.taps, taps);
    for (int it = 0; it < 100; ++it) {
      std::vector<u16> v(static_cast<std::size_t>(taps));
      if (it % 2 == 0) {
        for (u16& x : v) x = static_cast<u16>(rng.next_u64() & 0xFFFF);
      } else {
        for (u16& x : v) x = static_cast<u16>(rng.bounded(3));
      }
      ASSERT_EQ(run_network(net, v), ref_median(v))
          << taps << " taps, iteration " << it;
    }
  }
}

// End-to-end over the call path: every rect window size from 1x1 to 9x9,
// channel masks covering the u8 video channels and the full-range u16 side
// channels, on a frame small enough that most pixels take the border path
// (and, for the widest windows, the interior vanishes entirely).
TEST(MedianNetwork, KernelMedianMatchesInterpreterForEveryWindowAndMask) {
  const ChannelMask masks[] = {
      ChannelMask::y(), ChannelMask::all(),
      ChannelMask{ChannelMask::alfa().bits() | ChannelMask::aux().bits()}};
  const alib::KernelBackend kernels;
  const img::Image a = img::make_test_frame(Size{21, 13}, 77);
  std::vector<Neighborhood> windows;
  for (i32 lines = 1; lines <= 9; lines += 2)
    for (i32 taps = 1; taps <= 9; taps += 2)
      windows.push_back(Neighborhood::rect(taps, lines));
  windows.push_back(Neighborhood::con4());  // non-rect: 5-tap cross
  windows.push_back(Neighborhood::con8());
  for (const Neighborhood& nbhd : windows) {
    for (const ChannelMask mask : masks) {
      const Call call = Call::make_intra(PixelOp::Median, nbhd, mask, mask);
      SCOPED_TRACE(call.describe() + " mask=" + std::to_string(mask.bits()));
      const CallResult ref = execute_functional(call, a);
      test::expect_results_equal(ref, kernels.execute(call, a));
    }
  }
}

}  // namespace
}  // namespace ae::alib
