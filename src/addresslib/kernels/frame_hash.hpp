// Frame content hash: the key a frame carries through the serving stack
// (residency tables, the farm's affinity router, plan-directed keep-set
// pins, shard snapshots).  core::frame_content_hash is the one public entry point; this
// header is its single definition, written once over simd.hpp's U64x2 ops.
//
// XXH3-style and vectorized.  Each pixel is read as its 64-bit word with
// the padding byte masked off — `raw & 0xFFFFFFFF00FFFFFF`, which is
// exactly `lower_word | upper_word << 32` — and pixel i of an 8-pixel
// stripe feeds accumulator lane i:
//
//   acc += x + lo32(x ^ k) * hi32(x ^ k)
//
// The secret k is per lane and steps by an odd constant every stripe (the
// step runs on across rows), so a word's contribution depends on where it
// sits, not only on which lane it lands in.  Every row ends with the XXH3
// scramble (xorshift 47, xor a per-lane secret, multiply by an odd 32-bit
// prime).  Pixels left over at the end of a row (width % 8) are mixed
// scalar into lanes 0..tail-1 with the current stripe's keys.  The
// finalization folds the lanes, the width and the height and runs a 64-bit
// avalanche.  The result is never 0, which means "empty slot".
//
// Without the position keys and the scramble a plain additive accumulator
// collides on any permutation that keeps each pixel in its lane — with CIF
// rows of 352 = 44 * 8 pixels a cyclic one-row scroll would hash equal.
//
// The lowerings (SSE2, NEON, scalar) are exact integer arithmetic and
// return identical keys (pinned by simd_boundary_test's golden keys).  The
// hash is a routing key, not a cryptographic or adversarial one.
#pragma once

#include <array>
#include <cstddef>
#include <type_traits>

#include "addresslib/kernels/simd.hpp"
#include "image/image.hpp"

namespace ae::alib::kern {

namespace frame_hash_detail {

// The vector loads read a Pixel's bytes as one word: Y,U,V, the padding
// byte, then Alfa and Aux.
static_assert(sizeof(img::Pixel) == 8 &&
              std::is_trivially_copyable_v<img::Pixel> &&
              offsetof(img::Pixel, v) == 2 &&
              offsetof(img::Pixel, alfa) == 4 &&
              offsetof(img::Pixel, aux) == 6);

inline constexpr i32 kLanes = 8;
inline constexpr u64 kPadMask = 0xFFFFFFFF00FFFFFFull;
inline constexpr u64 kPrime32 = 0x9E3779B1ull;
inline constexpr u64 kPrime64 = 0x9E3779B185EBCA87ull;
/// Odd, so a lane's key cycles through all 2^64 values.
inline constexpr u64 kKeyStep = 0x9E3779B97F4A7C15ull;

constexpr u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::array<u64, kLanes> lane_constants(u64 seed) {
  std::array<u64, kLanes> out{};
  for (i32 i = 0; i < kLanes; ++i)
    out[static_cast<std::size_t>(i)] = splitmix64(seed + static_cast<u64>(i));
  return out;
}

/// XXH3's initial accumulators.
inline constexpr std::array<u64, kLanes> kAccInit = {
    0xC2B2AE3Dull,          0x9E3779B185EBCA87ull, 0xC2B2AE3D27D4EB4Full,
    0x165667B19E3779F9ull, 0x85EBCA77C2B2AE63ull, 0x85EBCA77ull,
    0x27D4EB2F165667C5ull, 0x9E3779B1ull};
inline constexpr std::array<u64, kLanes> kKey0 = lane_constants(0x4145u);
inline constexpr std::array<u64, kLanes> kScrambleKey =
    lane_constants(0x5343u);

constexpr u64 mix_word(u64 acc, u64 x, u64 key) {
  const u64 xk = x ^ key;
  return acc + x + (xk & 0xFFFFFFFFull) * (xk >> 32);
}

inline simd::U64x2 mix_word(simd::U64x2 acc, simd::U64x2 x,
                            simd::U64x2 key) {
  const simd::U64x2 xk = simd::bit_xor(x, key);
  return simd::add(acc, simd::add(x, simd::mul32(xk, simd::shr64<32>(xk))));
}

inline simd::U64x2 scramble(simd::U64x2 acc, simd::U64x2 key,
                            simd::U64x2 prime) {
  acc = simd::bit_xor(acc, simd::shr64<47>(acc));
  acc = simd::bit_xor(acc, key);
  // acc * prime mod 2^64 from two 32x32 products.
  return simd::add(simd::mul32(acc, prime),
                   simd::shl64<32>(simd::mul32(simd::shr64<32>(acc), prime)));
}

}  // namespace frame_hash_detail

// In the lowering's inline namespace, like simd.hpp itself: a forced-scalar
// build of this function never merges with a vector-built one.
inline namespace AE_SIMD_LOWERING {

inline u64 frame_hash(const img::Image& image) {
  using namespace frame_hash_detail;
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
  // XXH3 avalanche.
  h ^= h >> 37;
  h *= 0x165667919E3779F9ull;
  h ^= h >> 32;
  return h == 0 ? 1 : h;  // 0 means "empty slot"
}

}  // namespace AE_SIMD_LOWERING
}  // namespace ae::alib::kern
