#include "image/io.hpp"

#include <array>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace ae::img {
namespace {

constexpr std::array<char, 4> kAeiMagic{'A', 'E', 'I', '1'};

/// Largest frame a file may declare (AEI and PGM alike), checked before
/// anything is allocated.
constexpr i64 kMaxFilePixels = i64{1} << 26;

bool plausible_dimensions(i32 width, i32 height) {
  return width >= 0 && height >= 0 &&
         static_cast<i64>(width) * height <= kMaxFilePixels;
}

void put_u32(std::ostream& os, u32 v) {
  const std::array<char, 4> b{
      static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF)};
  os.write(b.data(), b.size());
}

u32 get_u32(std::istream& is) {
  std::array<unsigned char, 4> b{};
  is.read(reinterpret_cast<char*>(b.data()), b.size());
  if (!is) throw IoError("unexpected end of AEI stream");
  return static_cast<u32>(b[0]) | (static_cast<u32>(b[1]) << 8) |
         (static_cast<u32>(b[2]) << 16) | (static_cast<u32>(b[3]) << 24);
}

/// Skips PNM whitespace and '#' comments.
void skip_pnm_separators(std::istream& is) {
  for (;;) {
    const int c = is.peek();
    if (c == '#') {
      std::string line;
      std::getline(is, line);
    } else if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      is.get();
    } else {
      return;
    }
  }
}

i32 read_pnm_int(std::istream& is) {
  skip_pnm_separators(is);
  i32 v = 0;
  if (!(is >> v)) throw IoError("malformed PNM header");
  return v;
}

template <typename Fn>
void with_output_file(const std::string& path, Fn&& fn) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw IoError("cannot open for writing: " + path);
  fn(os);
  os.flush();
  if (!os) throw IoError("write failed: " + path);
}

template <typename Fn>
auto with_input_file(const std::string& path, Fn&& fn) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open for reading: " + path);
  return fn(is);
}

}  // namespace

Rgb to_rgb(const Pixel& p) {
  const double y = p.y;
  const double u = static_cast<double>(p.u) - 128.0;
  const double v = static_cast<double>(p.v) - 128.0;
  auto clamp = [](double x) {
    return static_cast<u8>(x < 0 ? 0 : (x > 255 ? 255 : std::lround(x)));
  };
  return Rgb{clamp(y + 1.402 * v), clamp(y - 0.344136 * u - 0.714136 * v),
             clamp(y + 1.772 * u)};
}

void write_pgm(const Image& image, std::ostream& os) {
  os << "P5\n" << image.width() << ' ' << image.height() << "\n255\n";
  for (i32 y = 0; y < image.height(); ++y)
    for (i32 x = 0; x < image.width(); ++x)
      os.put(static_cast<char>(image.ref(x, y).y));
}

Image read_pgm(std::istream& is) {
  std::string magic(2, '\0');
  is.read(magic.data(), 2);
  if (!is || magic != "P5") throw IoError("not a binary PGM (P5) stream");
  const i32 width = read_pnm_int(is);
  const i32 height = read_pnm_int(is);
  const i32 maxval = read_pnm_int(is);
  if (width <= 0 || height <= 0 || maxval != 255)
    throw IoError("unsupported PGM geometry/depth");
  if (!plausible_dimensions(width, height))
    throw IoError("implausible PGM dimensions");
  is.get();  // single separator byte after maxval
  Image out(width, height);
  for (i32 y = 0; y < height; ++y)
    for (i32 x = 0; x < width; ++x) {
      const int c = is.get();
      if (c == EOF) throw IoError("truncated PGM payload");
      out.ref(x, y).y = static_cast<u8>(c);
    }
  return out;
}

void write_ppm(const Image& image, std::ostream& os) {
  os << "P6\n" << image.width() << ' ' << image.height() << "\n255\n";
  for (i32 y = 0; y < image.height(); ++y)
    for (i32 x = 0; x < image.width(); ++x) {
      const Rgb rgb = to_rgb(image.ref(x, y));
      os.put(static_cast<char>(rgb.r));
      os.put(static_cast<char>(rgb.g));
      os.put(static_cast<char>(rgb.b));
    }
}

void write_aei(const Image& image, std::ostream& os) {
  os.write(kAeiMagic.data(), kAeiMagic.size());
  put_u32(os, static_cast<u32>(image.width()));
  put_u32(os, static_cast<u32>(image.height()));
  put_u32(os, 0);  // reserved
  for (i32 y = 0; y < image.height(); ++y)
    for (i32 x = 0; x < image.width(); ++x) {
      const Pixel& p = image.ref(x, y);
      put_u32(os, p.lower_word());
      put_u32(os, p.upper_word());
    }
}

Image read_aei(std::istream& is) {
  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  if (!is || magic != kAeiMagic) throw IoError("not an AEI stream");
  const auto width = static_cast<i32>(get_u32(is));
  const auto height = static_cast<i32>(get_u32(is));
  (void)get_u32(is);  // reserved
  if (!plausible_dimensions(width, height))
    throw IoError("implausible AEI dimensions");
  Image out(width, height);
  for (i32 y = 0; y < height; ++y)
    for (i32 x = 0; x < width; ++x) {
      const u32 lower = get_u32(is);
      const u32 upper = get_u32(is);
      out.ref(x, y) = Pixel::from_words(lower, upper);
    }
  return out;
}

void write_pgm(const Image& image, const std::string& path) {
  with_output_file(path, [&](std::ostream& os) { write_pgm(image, os); });
}

Image read_pgm(const std::string& path) {
  return with_input_file(path, [&](std::istream& is) { return read_pgm(is); });
}

void write_ppm(const Image& image, const std::string& path) {
  with_output_file(path, [&](std::ostream& os) { write_ppm(image, os); });
}

void write_aei(const Image& image, const std::string& path) {
  with_output_file(path, [&](std::ostream& os) { write_aei(image, os); });
}

Image read_aei(const std::string& path) {
  return with_input_file(path, [&](std::istream& is) { return read_aei(is); });
}

}  // namespace ae::img
