#include "gme/motion.hpp"

#include <algorithm>
#include <array>
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

/// The vertical blend of two horizontal blends, rounded as std::lround
/// rounds it but without the libm call: a convex blend of u8 taps lies in
/// [0, 255], so the cast truncates to the floor and the remainder v - t is
/// exact.
u8 lerp_round(double top, double bot, double wy) {
  const double v = top + (bot - top) * wy;
  const auto t = static_cast<i32>(v);
  return static_cast<u8>(t + (v - t >= 0.5 ? 1 : 0));
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
    return lerp_round(top, bot, wy);
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
  // `row` writes every pixel, so the frame is not filled first.  Every
  // output pixel is a pure function of src, so banding changes none.
  img::Image out = img::Image::for_overwrite(src.size());
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
  AE_EXPECTS(!src.empty(), "cannot warp an empty image");
  // x + dx does not depend on the row: resolve the column taps once.
  std::vector<LerpTap> cols(static_cast<std::size_t>(src.width()));
  for (i32 x = 0; x < src.width(); ++x)
    cols[static_cast<std::size_t>(x)] = lerp_tap(x + t.dx, src.width());
  // Every pixel is written below; each band blends its own source rows, so
  // banding changes no output value.
  img::Image out = img::Image::for_overwrite(src.size());
  par::ThreadPool::shared().parallel_rows(
      src.height(), kRowGrain, [&](i32 y0, i32 y1) {
        // The horizontal Y/U/V blends of the two source rows in use, one
        // triple per column in each slot.  The column taps are the same on
        // every row, so a source row is blended once and shared by the (up
        // to two) output rows that sample it; the vertical blend below runs
        // on the cached values in lerp_pixel's operation order.
        std::vector<double> taps(6 * cols.size());
        std::array<i32, 2> held{-1, -1};  // source row in each slot
        // Source row `sy`; a missing row replaces the held one that is not
        // `keep`.
        const auto blended = [&](i32 sy, i32 keep) {
          std::size_t k = held[1] == sy ? 1u : 0u;
          const bool cached = held[k] == sy;
          if (!cached) k = held[0] == keep ? 1u : 0u;
          double* slot = taps.data() + 3 * cols.size() * k;
          if (cached) return slot;
          held[k] = sy;
          const img::Pixel* r = &src.ref(0, sy);
          for (std::size_t x = 0; x < cols.size(); ++x) {
            const img::Pixel& a = r[cols[x].i0];
            const img::Pixel& b = r[cols[x].i1];
            slot[3 * x] = a.y + (b.y - a.y) * cols[x].w;
            slot[3 * x + 1] = a.u + (b.u - a.u) * cols[x].w;
            slot[3 * x + 2] = a.v + (b.v - a.v) * cols[x].w;
          }
          return slot;
        };
        for (i32 y = y0; y < y1; ++y) {
          const LerpTap ty = lerp_tap(y + t.dy, src.height());
          const double* top = blended(ty.i0, ty.i1);
          const double* bot = blended(ty.i1, ty.i0);
          const img::Pixel* r0 = &src.ref(0, ty.i0);
          img::Pixel* o = &out.ref(0, y);
          for (std::size_t x = 0; x < cols.size(); ++x, top += 3, bot += 3) {
            o[x] = r0[cols[x].i0];  // Alfa/Aux of the top-left tap
            o[x].y = lerp_round(top[0], bot[0], ty.w);
            o[x].u = lerp_round(top[1], bot[1], ty.w);
            o[x].v = lerp_round(top[2], bot[2], ty.w);
          }
        }
      });
  return out;
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
