// Properties of the frame content hash (core::frame_content_hash, defined in
// addresslib/kernels/frame_hash.hpp): the key ignores the padding byte,
// separates one-bit changes in every channel and lane, separates
// permutations a plain per-lane sum would not (same-lane swaps, a cyclic
// row scroll, other layouts of the same pixels), and is never 0.  The
// banded hash (row sums on the pool, then a serial fold) is held to the
// one-pass serial loop that defines it, serial_oracle below, at every band
// and threshold boundary and under concurrent callers.  The golden keys
// that pin the SIMD and scalar lowerings to each other live in
// simd_boundary_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "addresslib/kernels/frame_hash.hpp"
#include "addresslib/kernels/kernel_backend.hpp"
#include "core/session.hpp"
#include "image/synth.hpp"

namespace ae {
namespace {

using core::frame_content_hash;

/// 18 pixels wide: two full 8-pixel stripes plus a 2-pixel scalar tail.
img::Image lane_frame() { return img::make_test_frame(Size{18, 3}, 7); }

TEST(FrameHash, EqualContentEqualKeyWhateverThePaddingByte) {
  const img::Image reference = img::make_test_frame(Size{37, 5}, 3);
  img::Image padded(reference.size());
  std::memset(static_cast<void*>(padded.pixels().data()), 0xA5,
              padded.pixels().size() * sizeof(img::Pixel));
  for (std::size_t i = 0; i < padded.pixels().size(); ++i) {
    const img::Pixel& src = reference.pixels()[i];
    img::Pixel& dst = padded.pixels()[i];
    dst.y = src.y;
    dst.u = src.u;
    dst.v = src.v;
    dst.alfa = src.alfa;
    dst.aux = src.aux;
  }
  ASSERT_EQ(padded, reference);
  EXPECT_EQ(frame_content_hash(padded), frame_content_hash(reference));
  EXPECT_EQ(frame_content_hash(img::Image(reference)),
            frame_content_hash(reference));
}

TEST(FrameHash, OneBitFlipInEveryChannelAndLaneChangesKey) {
  const img::Image base = lane_frame();
  std::set<u64> keys{frame_content_hash(base)};
  std::size_t variants = 1;
  const auto flip = [&](img::Image f) {
    keys.insert(frame_content_hash(f));
    ++variants;
  };
  for (std::size_t i = 0; i < 18; ++i) {
    for (int bit = 0; bit < 16; ++bit) {
      if (bit < 8) {
        img::Image f = base;
        f.pixels()[i].y ^= static_cast<u8>(1u << bit);
        flip(f);
        f = base;
        f.pixels()[i].u ^= static_cast<u8>(1u << bit);
        flip(f);
        f = base;
        f.pixels()[i].v ^= static_cast<u8>(1u << bit);
        flip(f);
      }
      img::Image f = base;
      f.pixels()[i].alfa ^= static_cast<u16>(1u << bit);
      flip(f);
      f = base;
      f.pixels()[i].aux ^= static_cast<u16>(1u << bit);
      flip(f);
    }
  }
  EXPECT_EQ(variants, 1u + 18u * (3u * 8u + 2u * 16u));
  EXPECT_EQ(keys.size(), variants) << "two one-bit variants share a key";
}

TEST(FrameHash, SameLanePermutationsChangeKey) {
  const img::Image base = lane_frame();
  const u64 key = frame_content_hash(base);
  for (std::size_t i = 0; i + 8 < 18; ++i) {
    img::Image swapped = base;
    std::swap(swapped.pixels()[i], swapped.pixels()[i + 8]);
    ASSERT_NE(swapped, base);
    EXPECT_NE(frame_content_hash(swapped), key) << "swap " << i;
  }
}

// CIF rows are 352 = 44 * 8 pixels, so a cyclic scroll by one row (or by one
// stripe within each row) keeps every pixel in its lane.
TEST(FrameHash, CyclicScrollsOfACifFrameChangeKey) {
  const img::Image base = img::make_test_frame(Size{352, 288}, 1);
  img::Image rows(base.size());
  img::Image stripes(base.size());
  for (i32 y = 0; y < base.height(); ++y) {
    for (i32 x = 0; x < base.width(); ++x) {
      rows.ref(x, y) = base.ref(x, (y + 1) % base.height());
      stripes.ref(x, y) = base.ref((x + 8) % base.width(), y);
    }
  }
  const u64 key = frame_content_hash(base);
  EXPECT_NE(frame_content_hash(rows), key);
  EXPECT_NE(frame_content_hash(stripes), key);
  EXPECT_NE(frame_content_hash(rows), frame_content_hash(stripes));
}

TEST(FrameHash, SamePixelsInOtherLayoutsChangeKey) {
  const img::Image line = img::make_test_frame(Size{16, 1}, 11);
  std::set<u64> keys;
  for (const Size size : {Size{16, 1}, Size{1, 16}, Size{2, 8}, Size{8, 2}}) {
    img::Image f(size);
    f.pixels() = line.pixels();
    keys.insert(frame_content_hash(f));
  }
  EXPECT_EQ(keys.size(), 4u);
}

TEST(FrameHash, KeyIsNeverZeroAndEmptyFramesAreHandled) {
  const u64 empty = frame_content_hash(img::Image{});
  EXPECT_NE(empty, 0u);
  EXPECT_EQ(frame_content_hash(img::Image(Size{0, 0})), empty);
  for (u64 seed = 0; seed < 64; ++seed) {
    const Size size{1 + static_cast<i32>(seed % 23),
                    1 + static_cast<i32>(seed % 5)};
    EXPECT_NE(frame_content_hash(img::make_test_frame(size, seed)), 0u);
    EXPECT_NE(frame_content_hash(img::Image(size, img::Pixel{0, 0, 0, 0, 0})),
              0u);
  }
}

// ---- the banded hash against the serial definition ------------------------

/// The hash as one serial pass: per row, the stripes then the tail mixed
/// into the running lanes, then the row-end scramble; the finalization as in
/// frame_hash.  kern::frame_hash must equal it bit for bit.
u64 serial_oracle(const img::Image& image) {
  namespace simd = alib::kern::simd;
  using namespace alib::kern::frame_hash_detail;
  constexpr i32 kVecs = kLanes / 2;
  simd::U64x2 acc[kVecs];
  simd::U64x2 key[kVecs];
  simd::U64x2 scramble_key[kVecs];
  for (i32 j = 0; j < kVecs; ++j) {
    const auto lo = static_cast<std::size_t>(2 * j);
    acc[j] = simd::make64(kAccInit[lo], kAccInit[lo + 1]);
    key[j] = simd::make64(kKey0[lo], kKey0[lo + 1]);
    scramble_key[j] = simd::make64(kScrambleKey[lo], kScrambleKey[lo + 1]);
  }
  const simd::U64x2 step = simd::make64(kKeyStep, kKeyStep);
  const simd::U64x2 pad = simd::make64(kPadMask, kPadMask);
  const simd::U64x2 prime = simd::make64(kPrime32, kPrime32);

  const i32 width = image.width();
  const i32 height = image.height();
  const i32 stripes = width / kLanes;
  const i32 tail = width % kLanes;
  const img::Pixel* row = image.pixels().data();
  for (i32 y = 0; y < height; ++y) {
    for (i32 s = 0; s < stripes; ++s, row += kLanes) {
      for (i32 j = 0; j < kVecs; ++j) {
        const simd::U64x2 x = simd::bit_and(simd::load64(row + 2 * j), pad);
        acc[j] = mix_word(acc[j], x, key[j]);
        key[j] = simd::add(key[j], step);
      }
    }
    if (tail > 0) {
      u64 lanes[kLanes];
      u64 keys[kLanes];
      for (i32 j = 0; j < kVecs; ++j) {
        simd::store(lanes + 2 * j, acc[j]);
        simd::store(keys + 2 * j, key[j]);
      }
      for (i32 i = 0; i < tail; ++i, ++row) {
        const u64 x =
            row->lower_word() | static_cast<u64>(row->upper_word()) << 32;
        lanes[i] = mix_word(lanes[i], x, keys[i]);
      }
      for (i32 j = 0; j < kVecs; ++j) {
        acc[j] = simd::make64(lanes[2 * j], lanes[2 * j + 1]);
        key[j] = simd::add(key[j], step);
      }
    }
    for (i32 j = 0; j < kVecs; ++j)
      acc[j] = scramble(acc[j], scramble_key[j], prime);
  }

  u64 lanes[kLanes];
  for (i32 j = 0; j < kVecs; ++j) simd::store(lanes + 2 * j, acc[j]);
  u64 h = static_cast<u64>(static_cast<u32>(width)) << 32 |
          static_cast<u32>(height);
  for (const u64 lane : lanes) {
    h = (h ^ lane) * kPrime64;
    h ^= h >> 29;
  }
  h ^= h >> 37;
  h *= 0x165667919E3779F9ull;
  h ^= h >> 32;
  return h == 0 ? 1 : h;
}

/// Every shape the banding can split differently: widths 1-17 (all tails,
/// one and two stripes), CIF-wide heights on both sides of the band grain,
/// of the parallel threshold and of the row chunk, tails on parallel frames,
/// one-row bands, and the two degenerate strips.
std::vector<Size> oracle_sizes() {
  using namespace alib::kern::frame_hash_detail;
  std::vector<Size> sizes;
  for (i32 w = 1; w <= 17; ++w)
    for (const i32 h : {1, 2, 7, 33}) sizes.push_back({w, h});
  const i32 grain = band_rows(352);
  const auto first_parallel =
      static_cast<i32>((kParallelPixels + 351) / 352);
  for (const i32 h : {1, grain - 1, grain, grain + 1, 2 * grain + 1,
                      first_parallel - 1, first_parallel, first_parallel + 1,
                      288, kChunkRows, kChunkRows + 1})
    sizes.push_back({352, h});
  for (i32 w = 353; w <= 359; ++w) sizes.push_back({w, first_parallel + 3});
  sizes.push_back({704, 576});
  sizes.push_back({static_cast<i32>(kBandPixels) + 5, 9});
  sizes.push_back({1, 4096});
  sizes.push_back({4096, 1});
  return sizes;
}

TEST(FrameHash, BandedEqualsSerialOracle) {
  for (const Size size : oracle_sizes()) {
    for (u64 seed = 1; seed <= 5; ++seed) {
      const img::Image f = img::make_test_frame(size, seed);
      ASSERT_EQ(frame_content_hash(f), serial_oracle(f))
          << size.width << "x" << size.height << " seed " << seed;
    }
  }
}

// Four hashers on distinct CIF frames share the pool with kernel calls: every
// band of every hash lands in its own caller's row sums.
TEST(FrameHash, ConcurrentHashersAgree) {
  constexpr int kHashers = 4;
  constexpr int kRounds = 8;
  std::vector<img::Image> frames;
  std::vector<u64> want;
  for (int t = 0; t < kHashers; ++t) {
    frames.push_back(
        img::make_test_frame(Size{352, 288}, 100 + static_cast<u64>(t)));
    want.push_back(serial_oracle(frames.back()));
  }
  const alib::KernelBackend kernels;
  const alib::Call absdiff = alib::Call::make_inter(alib::PixelOp::AbsDiff);
  std::vector<std::vector<u64>> got(kHashers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kHashers; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      for (int r = 0; r < kRounds; ++r) {
        got[i].push_back(frame_content_hash(frames[i]));
        (void)kernels.execute(absdiff, frames[i],
                              &frames[(i + 1) % kHashers]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < kHashers; ++i) {
    ASSERT_EQ(got[i].size(), static_cast<std::size_t>(kRounds));
    for (const u64 key : got[i]) EXPECT_EQ(key, want[i]) << "hasher " << i;
  }
}

}  // namespace
}  // namespace ae
