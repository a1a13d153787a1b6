#include "image/image.hpp"

#include <algorithm>

namespace ae::img {

Image::Image(Size size, Pixel fill) : size_(size) {
  AE_EXPECTS(size.width >= 0 && size.height >= 0,
             "image dimensions must be non-negative");
  data_.assign(static_cast<std::size_t>(size.area()), fill);
}

Image::Image(i32 width, i32 height, Pixel fill)
    : Image(Size{width, height}, fill) {}

Image Image::for_overwrite(Size size) {
  AE_EXPECTS(size.width >= 0 && size.height >= 0,
             "image dimensions must be non-negative");
  Image out;
  out.size_ = size;
  // FrameAllocator's no-argument construct writes nothing.
  out.data_.resize(static_cast<std::size_t>(size.area()));
  return out;
}

Pixel& Image::at(i32 x, i32 y) {
  AE_EXPECTS(contains(Point{x, y}), "pixel coordinate out of bounds");
  return ref(x, y);
}

const Pixel& Image::at(i32 x, i32 y) const {
  AE_EXPECTS(contains(Point{x, y}), "pixel coordinate out of bounds");
  return ref(x, y);
}

const Pixel& Image::clamped(i32 x, i32 y) const {
  AE_EXPECTS(!empty(), "clamped access on empty image");
  const i32 cx = std::clamp(x, 0, size_.width - 1);
  const i32 cy = std::clamp(y, 0, size_.height - 1);
  return ref(cx, cy);
}

void Image::fill(Pixel p) { std::fill(data_.begin(), data_.end(), p); }

void Image::fill_channel(Channel c, u16 value) {
  for (auto& px : data_) px.set(c, value);
}

Image Image::crop(const Rect& r) const {
  AE_EXPECTS(r.intersect(bounds()) == r, "crop rect must lie inside image");
  Image out(r.size());
  for (i32 y = 0; y < r.height; ++y)
    for (i32 x = 0; x < r.width; ++x) out.ref(x, y) = ref(r.x + x, r.y + y);
  return out;
}

}  // namespace ae::img
