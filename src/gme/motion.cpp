#include "gme/motion.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ae::gme {

std::string to_string(Translation t) {
  std::ostringstream os;
  os << "(dx=" << t.dx << ", dy=" << t.dy << ")";
  return os.str();
}

namespace {

// Rows of a warp (and of decimate2) are banded 16 at a time.
constexpr i32 kRowGrain = 16;

/// One axis of a bilinear sample: both taps clamped into the frame, and the
/// weight of the second.
struct LerpTap {
  i32 i0, i1;
  double w;
};

LerpTap lerp_tap(double s, i32 size) {
  // Clamping into [-1, size] first keeps the cast defined for any input
  // (NaN lands on -1) and changes no pixel: past the edge both taps already
  // clamp to the same edge pixel, and a + (a - a) * w == a.
  const double c = !(s > -1.0) ? -1.0 : std::min(s, static_cast<double>(size));
  const double f = std::floor(c);
  const auto i = static_cast<i32>(f);
  return {std::clamp(i, 0, size - 1), std::clamp(i + 1, 0, size - 1), c - f};
}

void lerp_pixel(const img::Pixel* r0, const img::Pixel* r1, LerpTap tx,
                double wy, img::Pixel& out) {
  const img::Pixel& p00 = r0[tx.i0];
  const img::Pixel& p10 = r0[tx.i1];
  const img::Pixel& p01 = r1[tx.i0];
  const img::Pixel& p11 = r1[tx.i1];
  const auto lerp2 = [&](u8 a, u8 b, u8 c, u8 d) {
    const double top = a + (b - a) * tx.w;
    const double bot = c + (d - c) * tx.w;
    return static_cast<u8>(std::lround(top + (bot - top) * wy));
  };
  out.y = lerp2(p00.y, p10.y, p01.y, p11.y);
  out.u = lerp2(p00.u, p10.u, p01.u, p11.u);
  out.v = lerp2(p00.v, p10.v, p01.v, p11.v);
  out.alfa = p00.alfa;
  out.aux = p00.aux;
}

}  // namespace

namespace detail {

void sample_bilinear(const img::Image& src, double sx, double sy,
                     img::Pixel& out) {
  const LerpTap ty = lerp_tap(sy, src.height());
  lerp_pixel(&src.ref(0, ty.i0), &src.ref(0, ty.i1), lerp_tap(sx, src.width()),
             ty.w, out);
}

img::Image warp_rows(const img::Image& src,
                     const std::function<void(i32, img::Pixel*)>& row) {
  AE_EXPECTS(!src.empty(), "cannot warp an empty image");
  img::Image out(src.size());
  // Every output pixel is a pure function of src, so banding changes none.
  par::ThreadPool::shared().parallel_rows(
      src.height(), kRowGrain, [&](i32 y0, i32 y1) {
        for (i32 y = y0; y < y1; ++y) row(y, &out.ref(0, y));
      });
  return out;
}

}  // namespace detail

img::Image warp_translational(const img::Image& src, Translation t) {
  AE_EXPECTS(std::isfinite(t.dx) && std::isfinite(t.dy),
             "translation must be finite");
  // x + dx does not depend on the row: resolve the column taps once.
  std::vector<LerpTap> cols(static_cast<std::size_t>(src.width()));
  for (i32 x = 0; x < src.width(); ++x)
    cols[static_cast<std::size_t>(x)] = lerp_tap(x + t.dx, src.width());
  return detail::warp_rows(src, [&](i32 y, img::Pixel* out) {
    const LerpTap ty = lerp_tap(y + t.dy, src.height());
    const img::Pixel* r0 = &src.ref(0, ty.i0);
    const img::Pixel* r1 = &src.ref(0, ty.i1);
    for (std::size_t x = 0; x < cols.size(); ++x)
      lerp_pixel(r0, r1, cols[x], ty.w, out[x]);
  });
}

img::Image decimate2(const img::Image& src) {
  AE_EXPECTS(src.width() >= 2 && src.height() >= 2,
             "decimation needs at least 2x2 input");
  img::Image out(Size{src.width() / 2, src.height() / 2});
  // Each output pixel is a pure function of its 2x2 source block, so
  // banding the rows across the shared pool does not change any value.
  par::ThreadPool::shared().parallel_rows(
      out.height(), kRowGrain, [&](i32 band_y0, i32 band_y1) {
        for (i32 y = band_y0; y < band_y1; ++y)
          for (i32 x = 0; x < out.width(); ++x) {
            auto avg = [&](auto get) {
              const i32 sx = 2 * x;
              const i32 sy = 2 * y;
              const i32 sum = get(src.ref(sx, sy)) + get(src.ref(sx + 1, sy)) +
                              get(src.ref(sx, sy + 1)) +
                              get(src.ref(sx + 1, sy + 1));
              return static_cast<u8>((sum + 2) / 4);
            };
            img::Pixel& o = out.ref(x, y);
            o.y =
                avg([](const img::Pixel& p) { return static_cast<i32>(p.y); });
            o.u =
                avg([](const img::Pixel& p) { return static_cast<i32>(p.u); });
            o.v =
                avg([](const img::Pixel& p) { return static_cast<i32>(p.v); });
          }
      });
  return out;
}

}  // namespace ae::gme
