// Specialized inter row kernels: one flat loop per (op, channel), dispatch
// folded at compile time.  The arithmetic is detail::inter_channel_value —
// the same inline function the interpreter executes — called with a
// constant op so the switch disappears and the loop body is the bare
// per-channel expression, which the compiler can auto-vectorize.
#include <array>
#include <cstring>

#include "addresslib/kernels/row_kernels.hpp"
#include "addresslib/kernels/simd.hpp"

namespace ae::alib::kern {
namespace {

template <PixelOp Op, Channel C>
void inter_channel_row(const InterRowArgs& args) {
  const img::Pixel* a = args.a;
  const img::Pixel* b = args.b;
  img::Pixel* out = args.out;
  const OpParams& params = *args.params;
  for (i32 i = 0; i < args.n; ++i) {
    const i64 v = detail::inter_channel_value(
        Op, params, C, static_cast<i64>(a[i].get(C)),
        static_cast<i64>(b[i].get(C)));
    out[i].set(C, img::clamp_channel(C, v));
  }
}

/// Clamp-free lowering, taken only when the channel is in args.no_clamp:
/// the raw op result is proven in [0, channel max] for every pixel
/// (Call::clamp_free, stamped by analysis::apply_domain_hints), so u16
/// wrapping arithmetic is exact — Add cannot carry past 2^16, Sub cannot
/// borrow, and the final clamp is a proven no-op.  Mult's 8-bit-channel
/// product fits u16 before the shift (255 * 255 < 2^16) so the SIMD low
/// multiply is exact; 16-bit channels widen to u32 on the scalar tail path.
template <PixelOp Op, Channel C>
void inter_channel_row_nc(const InterRowArgs& args) {
  const img::Pixel* a = args.a;
  const img::Pixel* b = args.b;
  img::Pixel* out = args.out;
  const i32 shift = static_cast<i32>(args.params->shift);
  constexpr bool kSimdOk =
      Op == PixelOp::Add || Op == PixelOp::Sub ||
      (Op == PixelOp::Mult && img::channel_bits(C) == 8);
  i32 i = 0;
  if constexpr (kSimdOk) {
    alignas(16) u16 la[simd::kU16Lanes];
    alignas(16) u16 lb[simd::kU16Lanes];
    alignas(16) u16 lr[simd::kU16Lanes];
    for (; i + simd::kU16Lanes <= args.n; i += simd::kU16Lanes) {
      for (i32 l = 0; l < simd::kU16Lanes; ++l) {
        la[l] = a[i + l].get(C);
        lb[l] = b[i + l].get(C);
      }
      const simd::U16x8 va = simd::load(la);
      const simd::U16x8 vb = simd::load(lb);
      simd::U16x8 vr;
      if constexpr (Op == PixelOp::Add) {
        vr = simd::add(va, vb);
      } else if constexpr (Op == PixelOp::Sub) {
        vr = simd::sub(va, vb);
      } else {
        vr = simd::shr(simd::mullo(va, vb), shift);
      }
      simd::store(lr, vr);
      for (i32 l = 0; l < simd::kU16Lanes; ++l) out[i + l].set(C, lr[l]);
    }
  }
  for (; i < args.n; ++i) {
    const u32 av = a[i].get(C);
    const u32 bv = b[i].get(C);
    u32 v;
    if constexpr (Op == PixelOp::Add) {
      v = av + bv;
    } else if constexpr (Op == PixelOp::Sub) {
      v = av - bv;
    } else {
      v = (av * bv) >> shift;
    }
    out[i].set(C, static_cast<u16>(v));
  }
}

template <PixelOp Op>
void inter_row(const InterRowArgs& args) {
  // Pass-through baseline, exactly apply_inter's `result = a`.
  std::memcpy(args.out, args.a,
              sizeof(img::Pixel) * static_cast<std::size_t>(args.n));
  for_each_mask_channel(args.mask, [&](auto tag) {
    constexpr Channel kC = decltype(tag)::value;
    if constexpr (Op == PixelOp::Add || Op == PixelOp::Sub ||
                  Op == PixelOp::Mult) {
      if (args.no_clamp.contains(kC)) {
        inter_channel_row_nc<Op, kC>(args);
        return;
      }
    }
    inter_channel_row<Op, kC>(args);
  });
  if constexpr (Op == PixelOp::Sad) {
    // Side accumulator: sum of |a - b| over the masked video channels.
    // u64 addition commutes, so summing per row (and per band) is bit-exact
    // with the interpreter's per-pixel order.
    const bool sy = args.mask.contains(Channel::Y);
    const bool su = args.mask.contains(Channel::U);
    const bool sv = args.mask.contains(Channel::V);
    const img::Pixel* a = args.a;
    const img::Pixel* b = args.b;
    u64 sum = 0;
    for (i32 i = 0; i < args.n; ++i) {
      if (sy)
        sum += static_cast<u64>(a[i].y > b[i].y ? a[i].y - b[i].y
                                                : b[i].y - a[i].y);
      if (su)
        sum += static_cast<u64>(a[i].u > b[i].u ? a[i].u - b[i].u
                                                : b[i].u - a[i].u);
      if (sv)
        sum += static_cast<u64>(a[i].v > b[i].v ? a[i].v - b[i].v
                                                : b[i].v - a[i].v);
    }
    args.side->sad += sum;
  }
}

/// GmeAccum: Y = |a.y - b.y|, every other channel from `a` (apply_inter
/// ignores the output mask for this op); pixels within the robust cutoff add
/// their normal-equation terms from the gradients packed in b.Alfa/b.Aux.
/// Outliers are masked to zero instead of branched around, so they add
/// exactly nothing.  The terms are the interpreter's i64 products and i64/u64
/// addition is associative, so the per-row locals merged band by band are
/// bit-exact with its per-pixel order.
void gme_accum_row(const InterRowArgs& args) {
  std::memcpy(args.out, args.a,
              sizeof(img::Pixel) * static_cast<std::size_t>(args.n));
  const img::Pixel* a = args.a;
  const img::Pixel* b = args.b;
  img::Pixel* out = args.out;
  const i64 cutoff = args.params->threshold;
  i64 gxx = 0, gxy = 0, gyy = 0, gxr = 0, gyr = 0, inliers = 0;
  u64 sad = 0;
  for (i32 i = 0; i < args.n; ++i) {
    const i64 r = static_cast<i64>(a[i].y) - b[i].y;
    const i64 abs_r = r < 0 ? -r : r;
    const i64 inlier = abs_r <= cutoff ? 1 : 0;
    const i64 gx = (static_cast<i64>(b[i].alfa) - kGradBias) * inlier;
    const i64 gy = (static_cast<i64>(b[i].aux) - kGradBias) * inlier;
    gxx += gx * gx;
    gxy += gx * gy;
    gyy += gy * gy;
    gxr += gx * r;
    gyr += gy * r;
    inliers += inlier;
    sad += static_cast<u64>(abs_r);
    out[i].y = static_cast<u8>(abs_r);
  }
  std::array<i64, 6>& gme = args.side->gme;
  gme[0] += gxx;
  gme[1] += gxy;
  gme[2] += gyy;
  gme[3] += gxr;
  gme[4] += gyr;
  gme[5] += inliers;
  args.side->sad += sad;
}

}  // namespace

InterRowFn lower_inter_row(PixelOp op) {
  switch (op) {
    case PixelOp::Copy: return &inter_row<PixelOp::Copy>;
    case PixelOp::Add: return &inter_row<PixelOp::Add>;
    case PixelOp::Sub: return &inter_row<PixelOp::Sub>;
    case PixelOp::AbsDiff: return &inter_row<PixelOp::AbsDiff>;
    case PixelOp::Mult: return &inter_row<PixelOp::Mult>;
    case PixelOp::Min: return &inter_row<PixelOp::Min>;
    case PixelOp::Max: return &inter_row<PixelOp::Max>;
    case PixelOp::Average: return &inter_row<PixelOp::Average>;
    case PixelOp::Sad: return &inter_row<PixelOp::Sad>;
    case PixelOp::DiffMask: return &inter_row<PixelOp::DiffMask>;
    case PixelOp::BitAnd: return &inter_row<PixelOp::BitAnd>;
    case PixelOp::BitOr: return &inter_row<PixelOp::BitOr>;
    case PixelOp::BitXor: return &inter_row<PixelOp::BitXor>;
    case PixelOp::GmeAccum: return &gme_accum_row;
    default:
      // GmeAccumAffine needs the pixel position, which InterRowArgs does
      // not carry; GmePerspective sums in binary64, so merging band sums
      // would not be bit-exact.  Both stay on the interpreter.
      return nullptr;
  }
}

}  // namespace ae::alib::kern
