// Image container for 64-bit AddressLib pixels.
//
// Row-major storage, bounds-checked accessors (pixel manipulation in this
// codebase always goes through the AddressLib iteration drivers, so the
// checks are outside hot loops or compiled out via unchecked accessors used
// by the drivers after they validated the traversal).
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "image/frame_store.hpp"
#include "image/pixel.hpp"

namespace ae::img {

/// Pixel storage of an Image; its blocks recycle through FrameStore.
using PixelBuffer = std::vector<Pixel, FrameAllocator<Pixel>>;

class Image {
 public:
  Image() = default;

  /// Creates a width x height image filled with `fill`.
  Image(Size size, Pixel fill = Pixel{});
  Image(i32 width, i32 height, Pixel fill = Pixel{});

  /// A width x height image whose pixels are left unwritten (a recycled
  /// block keeps its old bytes).  Only for producers that write every
  /// pixel before anything reads one.
  static Image for_overwrite(Size size);

  i32 width() const { return size_.width; }
  i32 height() const { return size_.height; }
  Size size() const { return size_; }
  Rect bounds() const { return Rect{0, 0, size_.width, size_.height}; }
  bool empty() const { return data_.empty(); }
  i64 pixel_count() const { return size_.area(); }

  bool contains(Point p) const { return size_.contains(p); }

  /// Bounds-checked access.
  Pixel& at(i32 x, i32 y);
  const Pixel& at(i32 x, i32 y) const;
  Pixel& at(Point p) { return at(p.x, p.y); }
  const Pixel& at(Point p) const { return at(p.x, p.y); }

  /// Unchecked access for validated traversals.
  Pixel& ref(i32 x, i32 y) {
    return data_[static_cast<std::size_t>(y) *
                     static_cast<std::size_t>(size_.width) +
                 static_cast<std::size_t>(x)];
  }
  const Pixel& ref(i32 x, i32 y) const {
    return data_[static_cast<std::size_t>(y) *
                     static_cast<std::size_t>(size_.width) +
                 static_cast<std::size_t>(x)];
  }

  /// Clamped access: coordinates outside the frame are clamped to the
  /// nearest border pixel (the AddressLib border replication policy).
  const Pixel& clamped(i32 x, i32 y) const;

  PixelBuffer& pixels() { return data_; }
  const PixelBuffer& pixels() const { return data_; }

  void fill(Pixel p);
  /// Fills one channel on every pixel, leaving others untouched.
  void fill_channel(Channel c, u16 value);

  /// Returns a deep copy restricted to `r` (must be inside bounds).
  Image crop(const Rect& r) const;

  friend bool operator==(const Image& a, const Image& b) {
    return a.size_ == b.size_ && a.data_ == b.data_;
  }

 private:
  Size size_{};
  PixelBuffer data_;
};

/// Standard frame formats from the paper (section 3.1).
namespace formats {
inline constexpr Size kQcif{176, 144};  ///< ~200 kB at 64 bit/pixel
inline constexpr Size kCif{352, 288};   ///< ~800 kB at 64 bit/pixel
}  // namespace formats

/// Bytes occupied by an image on the ZBT (64 bits per pixel).
constexpr i64 zbt_bytes(Size s) { return s.area() * 8; }

}  // namespace ae::img
