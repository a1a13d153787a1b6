// Portable 8-lane u16 SIMD vector for the row kernels.
//
// Every AddressLib channel widens to u16 (image/pixel.hpp), so one vector
// type covers the whole op set: SSE2 on x86-64 (part of the baseline ISA —
// no AE_NATIVE required), NEON on aarch64, and a scalar struct everywhere
// else that compilers auto-vectorize or at worst unroll.  Grown on demand:
// the sorting-network median wants min/max, the clamp-free pointwise
// kernels (inter_kernels.cpp) want wrapping/saturating add/sub, a low
// multiply and a runtime right shift.
//
// A second type, U64x2, carries the handful of 64-bit lane ops the frame
// content hash (frame_hash.hpp) needs: add, xor, and, shifts and the
// 32x32->64 lane multiply (_mm_mul_epu32 / vmull_u32).
//
// Defining AE_SIMD_FORCE_SCALAR selects the scalar struct regardless of the
// host ISA — the boundary-value suite builds the same tests twice and
// cross-checks the vector and scalar lowerings at the domain extremes.
// Everything here sits in an inline namespace named after the lowering, so
// a forced-scalar translation unit linked against vector-built code never
// shares a symbol (or a struct layout) with it.
//
// SSE2 has no unsigned 16-bit min/max (those arrive with SSE4.1), but
// saturating subtraction gives both exactly:
//   subs(a,b) = a - min(a,b)   =>   min = a - subs(a,b),  max = b + subs(a,b)
// with no overflow in either correction (the sum/difference stays in u16).
#pragma once

#include <bit>
#include <cstring>

#include "common/types.hpp"

#if defined(AE_SIMD_FORCE_SCALAR)
// scalar fallback selected explicitly
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define AE_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define AE_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if defined(AE_SIMD_SSE2)
#define AE_SIMD_LOWERING sse2
#elif defined(AE_SIMD_NEON)
#define AE_SIMD_LOWERING neon
#else
#define AE_SIMD_LOWERING scalar
#endif

namespace ae::alib::kern::simd {
inline namespace AE_SIMD_LOWERING {

inline constexpr i32 kU16Lanes = 8;

#if defined(AE_SIMD_SSE2)

struct U16x8 {
  __m128i v;
};

inline U16x8 load(const u16* p) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
}
inline void store(u16* p, U16x8 a) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
}
inline U16x8 min(U16x8 a, U16x8 b) {
  return {_mm_sub_epi16(a.v, _mm_subs_epu16(a.v, b.v))};
}
inline U16x8 max(U16x8 a, U16x8 b) {
  return {_mm_add_epi16(b.v, _mm_subs_epu16(a.v, b.v))};
}
/// Wrapping (mod 2^16) lane add/sub — exact only when the caller proves the
/// true result fits u16 (the clamp-free kernels' precondition).
inline U16x8 add(U16x8 a, U16x8 b) { return {_mm_add_epi16(a.v, b.v)}; }
inline U16x8 sub(U16x8 a, U16x8 b) { return {_mm_sub_epi16(a.v, b.v)}; }
/// Saturating lane add/sub (clamp to [0, 0xFFFF]).
inline U16x8 adds(U16x8 a, U16x8 b) { return {_mm_adds_epu16(a.v, b.v)}; }
inline U16x8 subs(U16x8 a, U16x8 b) { return {_mm_subs_epu16(a.v, b.v)}; }
/// Low 16 bits of the lane product — exact when the full product fits u16
/// (always true for two 8-bit channel values: 255 * 255 < 2^16).
inline U16x8 mullo(U16x8 a, U16x8 b) { return {_mm_mullo_epi16(a.v, b.v)}; }
/// Logical lane right shift by a runtime count in [0, 15].
inline U16x8 shr(U16x8 a, i32 count) {
  return {_mm_srl_epi16(a.v, _mm_cvtsi32_si128(count))};
}

struct U64x2 {
  __m128i v;
};

/// Two little-endian u64 lanes from 16 bytes at any alignment.
inline U64x2 load64(const void* p) {
  return {_mm_loadu_si128(static_cast<const __m128i*>(p))};
}
inline void store(u64* p, U64x2 a) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
}
inline U64x2 make64(u64 lane0, u64 lane1) {
  return {_mm_set_epi64x(static_cast<long long>(lane1),
                         static_cast<long long>(lane0))};
}
inline U64x2 add(U64x2 a, U64x2 b) { return {_mm_add_epi64(a.v, b.v)}; }
inline U64x2 bit_xor(U64x2 a, U64x2 b) { return {_mm_xor_si128(a.v, b.v)}; }
inline U64x2 bit_and(U64x2 a, U64x2 b) { return {_mm_and_si128(a.v, b.v)}; }
template <int N>
inline U64x2 shr64(U64x2 a) {
  return {_mm_srli_epi64(a.v, N)};
}
template <int N>
inline U64x2 shl64(U64x2 a) {
  return {_mm_slli_epi64(a.v, N)};
}
/// Full 64-bit product of the low 32 bits of each lane.
inline U64x2 mul32(U64x2 a, U64x2 b) { return {_mm_mul_epu32(a.v, b.v)}; }

#elif defined(AE_SIMD_NEON)

struct U16x8 {
  uint16x8_t v;
};

inline U16x8 load(const u16* p) { return {vld1q_u16(p)}; }
inline void store(u16* p, U16x8 a) { vst1q_u16(p, a.v); }
inline U16x8 min(U16x8 a, U16x8 b) { return {vminq_u16(a.v, b.v)}; }
inline U16x8 max(U16x8 a, U16x8 b) { return {vmaxq_u16(a.v, b.v)}; }
inline U16x8 add(U16x8 a, U16x8 b) { return {vaddq_u16(a.v, b.v)}; }
inline U16x8 sub(U16x8 a, U16x8 b) { return {vsubq_u16(a.v, b.v)}; }
inline U16x8 adds(U16x8 a, U16x8 b) { return {vqaddq_u16(a.v, b.v)}; }
inline U16x8 subs(U16x8 a, U16x8 b) { return {vqsubq_u16(a.v, b.v)}; }
inline U16x8 mullo(U16x8 a, U16x8 b) { return {vmulq_u16(a.v, b.v)}; }
inline U16x8 shr(U16x8 a, i32 count) {
  return {vshlq_u16(a.v, vdupq_n_s16(static_cast<i16>(-count)))};
}

struct U64x2 {
  uint64x2_t v;
};

inline U64x2 load64(const void* p) {
  static_assert(std::endian::native == std::endian::little,
                "load64 reads little-endian lanes");
  return {vreinterpretq_u64_u8(vld1q_u8(static_cast<const u8*>(p)))};
}
inline void store(u64* p, U64x2 a) { vst1q_u64(p, a.v); }
inline U64x2 make64(u64 lane0, u64 lane1) {
  return {vcombine_u64(vcreate_u64(lane0), vcreate_u64(lane1))};
}
inline U64x2 add(U64x2 a, U64x2 b) { return {vaddq_u64(a.v, b.v)}; }
inline U64x2 bit_xor(U64x2 a, U64x2 b) { return {veorq_u64(a.v, b.v)}; }
inline U64x2 bit_and(U64x2 a, U64x2 b) { return {vandq_u64(a.v, b.v)}; }
template <int N>
inline U64x2 shr64(U64x2 a) {
  return {vshrq_n_u64(a.v, N)};
}
template <int N>
inline U64x2 shl64(U64x2 a) {
  return {vshlq_n_u64(a.v, N)};
}
inline U64x2 mul32(U64x2 a, U64x2 b) {
  return {vmull_u32(vmovn_u64(a.v), vmovn_u64(b.v))};
}

#else

struct U16x8 {
  u16 v[kU16Lanes];
};

inline U16x8 load(const u16* p) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i) r.v[i] = p[i];
  return r;
}
inline void store(u16* p, U16x8 a) {
  for (i32 i = 0; i < kU16Lanes; ++i) p[i] = a.v[i];
}
inline U16x8 min(U16x8 a, U16x8 b) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i]
                                                               : b.v[i];
  return r;
}
inline U16x8 max(U16x8 a, U16x8 b) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i]
                                                               : b.v[i];
  return r;
}
inline U16x8 add(U16x8 a, U16x8 b) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i)
    r.v[i] = static_cast<u16>(static_cast<u32>(a.v[i]) + b.v[i]);
  return r;
}
inline U16x8 sub(U16x8 a, U16x8 b) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i)
    r.v[i] = static_cast<u16>(static_cast<u32>(a.v[i]) - b.v[i]);
  return r;
}
inline U16x8 adds(U16x8 a, U16x8 b) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i) {
    const u32 s = static_cast<u32>(a.v[i]) + b.v[i];
    r.v[i] = s > 0xFFFFu ? u16{0xFFFF} : static_cast<u16>(s);
  }
  return r;
}
inline U16x8 subs(U16x8 a, U16x8 b) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i)
    r.v[i] = a.v[i] > b.v[i] ? static_cast<u16>(a.v[i] - b.v[i]) : u16{0};
  return r;
}
inline U16x8 mullo(U16x8 a, U16x8 b) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i)
    r.v[i] = static_cast<u16>(static_cast<u32>(a.v[i]) * b.v[i]);
  return r;
}
inline U16x8 shr(U16x8 a, i32 count) {
  U16x8 r;
  for (i32 i = 0; i < kU16Lanes; ++i)
    r.v[i] = static_cast<u16>(a.v[i] >> count);
  return r;
}

struct U64x2 {
  u64 v[2];
};

/// Little-endian lanes on any host (byte-assembled on a big-endian one).
inline U64x2 load64(const void* p) {
  U64x2 r{};
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(r.v, p, sizeof r.v);
  } else {
    const auto* bytes = static_cast<const u8*>(p);
    for (i32 i = 0; i < 16; ++i)
      r.v[i / 8] |= static_cast<u64>(bytes[i]) << (8 * (i % 8));
  }
  return r;
}
inline void store(u64* p, U64x2 a) {
  p[0] = a.v[0];
  p[1] = a.v[1];
}
inline U64x2 make64(u64 lane0, u64 lane1) { return {{lane0, lane1}}; }
inline U64x2 add(U64x2 a, U64x2 b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
}
inline U64x2 bit_xor(U64x2 a, U64x2 b) {
  return {{a.v[0] ^ b.v[0], a.v[1] ^ b.v[1]}};
}
inline U64x2 bit_and(U64x2 a, U64x2 b) {
  return {{a.v[0] & b.v[0], a.v[1] & b.v[1]}};
}
template <int N>
inline U64x2 shr64(U64x2 a) {
  return {{a.v[0] >> N, a.v[1] >> N}};
}
template <int N>
inline U64x2 shl64(U64x2 a) {
  return {{a.v[0] << N, a.v[1] << N}};
}
inline U64x2 mul32(U64x2 a, U64x2 b) {
  constexpr u64 kLow = 0xFFFFFFFFull;
  return {{(a.v[0] & kLow) * (b.v[0] & kLow),
           (a.v[1] & kLow) * (b.v[1] & kLow)}};
}

#endif

}  // namespace AE_SIMD_LOWERING
}  // namespace ae::alib::kern::simd
