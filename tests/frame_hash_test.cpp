// Properties of the frame content hash (core::frame_content_hash, defined in
// addresslib/kernels/frame_hash.hpp): the key ignores the padding byte,
// separates one-bit changes in every channel and lane, separates
// permutations a plain per-lane sum would not (same-lane swaps, a cyclic
// row scroll, other layouts of the same pixels), and is never 0.  The
// golden keys that pin the SIMD and scalar lowerings to each other live in
// simd_boundary_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

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

}  // namespace
}  // namespace ae
