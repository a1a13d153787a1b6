// Unit tests for the image substrate: the 64-bit pixel layout, the image
// container, synthesis, comparison and file I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "image/compare.hpp"
#include "image/image.hpp"
#include "image/io.hpp"
#include "image/synth.hpp"

namespace ae::img {
namespace {

TEST(Pixel, WordPackingLayout) {
  Pixel p;
  p.y = 0x12;
  p.u = 0x34;
  p.v = 0x56;
  p.alfa = 0xABCD;
  p.aux = 0xEF01;
  EXPECT_EQ(p.lower_word(), 0x00563412u);
  EXPECT_EQ(p.upper_word(), 0xEF01ABCDu);
}

class PixelRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(PixelRoundTrip, FromWordsInvertsToWords) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Pixel p;
    p.y = static_cast<u8>(rng.next_u32());
    p.u = static_cast<u8>(rng.next_u32());
    p.v = static_cast<u8>(rng.next_u32());
    p.alfa = static_cast<u16>(rng.next_u32());
    p.aux = static_cast<u16>(rng.next_u32());
    EXPECT_EQ(Pixel::from_words(p.lower_word(), p.upper_word()), p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PixelRoundTrip, ::testing::Values(1, 2, 3));

TEST(Pixel, GetSetCoversAllChannels) {
  Pixel p;
  for (int c = 0; c < kChannelCount; ++c) {
    const auto ch = static_cast<Channel>(c);
    p.set(ch, 200);
    EXPECT_EQ(p.get(ch), 200);
  }
}

TEST(Pixel, ClampHelpers) {
  EXPECT_EQ(clamp_u8(-5), 0);
  EXPECT_EQ(clamp_u8(300), 255);
  EXPECT_EQ(clamp_u8(128), 128);
  EXPECT_EQ(clamp_u16(-1), 0);
  EXPECT_EQ(clamp_u16(70000), 0xFFFF);
  EXPECT_EQ(clamp_channel(Channel::Y, 1000), 255);
  EXPECT_EQ(clamp_channel(Channel::Alfa, 1000), 1000);
}

TEST(Image, ConstructionAndFill) {
  Image img(Size{8, 4}, Pixel::gray(10));
  EXPECT_EQ(img.width(), 8);
  EXPECT_EQ(img.height(), 4);
  EXPECT_EQ(img.pixel_count(), 32);
  EXPECT_EQ(img.at(7, 3).y, 10);
  img.fill(Pixel::gray(99));
  EXPECT_EQ(img.at(0, 0).y, 99);
}

TEST(Image, AtThrowsOutOfBounds) {
  Image img(4, 4);
  EXPECT_THROW(img.at(4, 0), InvalidArgument);
  EXPECT_THROW(img.at(0, -1), InvalidArgument);
  EXPECT_THROW(img.at(-1, 2), InvalidArgument);
}

TEST(Image, NegativeDimensionsRejected) {
  EXPECT_THROW(Image(-1, 4), InvalidArgument);
}

TEST(Image, ClampedReplicatesBorder) {
  Image img(3, 3);
  img.at(0, 0).y = 11;
  img.at(2, 2).y = 22;
  EXPECT_EQ(img.clamped(-5, -5).y, 11);
  EXPECT_EQ(img.clamped(10, 10).y, 22);
  EXPECT_EQ(img.clamped(1, 1).y, img.at(1, 1).y);
}

TEST(Image, FillChannelLeavesOthers) {
  Image img(2, 2, Pixel::gray(50));
  img.fill_channel(Channel::Alfa, 7);
  EXPECT_EQ(img.at(1, 1).alfa, 7);
  EXPECT_EQ(img.at(1, 1).y, 50);
}

TEST(Image, CropCopiesRegion) {
  Image img(6, 6);
  img.at(2, 3).y = 123;
  const Image c = img.crop(Rect{2, 3, 2, 2});
  EXPECT_EQ(c.size(), (Size{2, 2}));
  EXPECT_EQ(c.at(0, 0).y, 123);
}

TEST(Image, CropRejectsOutside) {
  Image img(4, 4);
  EXPECT_THROW(img.crop(Rect{2, 2, 4, 4}), InvalidArgument);
}

TEST(Image, ZbtBytesMatchesPaperFigures) {
  // "QCIF (176x144, approx. 200 kBytes) or CIF (352x288, approx. 800 kB)".
  EXPECT_EQ(zbt_bytes(formats::kQcif), 176 * 144 * 8);
  EXPECT_NEAR(static_cast<double>(zbt_bytes(formats::kQcif)) / 1024.0, 198.0,
              1.0);
  EXPECT_NEAR(static_cast<double>(zbt_bytes(formats::kCif)) / 1024.0, 792.0,
              1.0);
}

TEST(Synth, RampSpansFullRange) {
  Image img(64, 8);
  draw_ramp(img);
  EXPECT_EQ(img.at(0, 0).y, 0);
  EXPECT_EQ(img.at(63, 7).y, 255);
}

TEST(Synth, CheckerboardAlternates) {
  Image img(8, 8);
  draw_checkerboard(img, 2, Pixel::gray(0), Pixel::gray(255));
  EXPECT_EQ(img.at(0, 0).y, 0);
  EXPECT_EQ(img.at(2, 0).y, 255);
  EXPECT_EQ(img.at(0, 2).y, 255);
  EXPECT_EQ(img.at(2, 2).y, 0);
}

TEST(Synth, DiskStaysInRadius) {
  Image img(21, 21, Pixel::gray(0));
  draw_disk(img, {10, 10}, 5, Pixel::gray(255));
  EXPECT_EQ(img.at(10, 10).y, 255);
  EXPECT_EQ(img.at(10, 15).y, 255);
  EXPECT_EQ(img.at(10, 16).y, 0);
  EXPECT_EQ(img.at(16, 16).y, 0);
}

TEST(Synth, RectClipsToImage) {
  Image img(4, 4, Pixel::gray(0));
  draw_rect(img, Rect{2, 2, 10, 10}, Pixel::gray(200));
  EXPECT_EQ(img.at(3, 3).y, 200);
  EXPECT_EQ(img.at(1, 1).y, 0);
}

TEST(Synth, TestFrameDeterministicPerSeed) {
  const Image a = make_test_frame(Size{32, 32}, 5);
  const Image b = make_test_frame(Size{32, 32}, 5);
  const Image c = make_test_frame(Size{32, 32}, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(count_differing(a, c, ChannelMask::y()), 0);
}

TEST(Synth, ValueNoiseIsDeterministicAndBounded) {
  for (int i = 0; i < 50; ++i) {
    const double x = i * 1.7;
    const double v = value_noise(x, x * 0.3, 9, 3, 16.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_DOUBLE_EQ(v, value_noise(x, x * 0.3, 9, 3, 16.0));
  }
}

TEST(Synth, ValueNoiseIsSmooth) {
  // Neighboring samples differ by far less than the full range.
  double max_step = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double a = value_noise(i * 0.5, 3.0, 7, 2, 32.0);
    const double b = value_noise(i * 0.5 + 0.5, 3.0, 7, 2, 32.0);
    max_step = std::max(max_step, std::abs(a - b));
  }
  EXPECT_LT(max_step, 0.2);
}

TEST(Compare, MetricsOnKnownImages) {
  Image a(4, 4, Pixel::gray(100));
  Image b(4, 4, Pixel::gray(110));
  EXPECT_EQ(sad_y(a, b), 16u * 10u);
  EXPECT_DOUBLE_EQ(mse_y(a, b), 100.0);
  EXPECT_NEAR(psnr_y(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0), 1e-9);
  EXPECT_TRUE(std::isinf(psnr_y(a, a)));
}

TEST(Compare, CountDifferingRespectsMask) {
  Image a(2, 2);
  Image b = a;
  b.at(0, 0).alfa = 5;
  EXPECT_EQ(count_differing(a, b, ChannelMask::y()), 0);
  EXPECT_EQ(count_differing(a, b, ChannelMask::all()), 1);
}

TEST(Compare, FirstDifferenceDescribesPixel) {
  Image a(2, 2);
  Image b = a;
  b.at(1, 0).y = 9;
  const std::string d = first_difference(a, b, ChannelMask::all());
  EXPECT_NE(d.find("(1,0)"), std::string::npos);
  EXPECT_NE(d.find("Y"), std::string::npos);
  EXPECT_TRUE(first_difference(a, a, ChannelMask::all()).empty());
}

TEST(Io, PgmRoundTripY) {
  const Image src = make_test_frame(Size{24, 16}, 3);
  std::stringstream ss;
  write_pgm(src, ss);
  const Image back = read_pgm(ss);
  EXPECT_EQ(back.size(), src.size());
  EXPECT_EQ(count_differing(src, back, ChannelMask::y()), 0);
}

TEST(Io, AeiRoundTripAllChannels) {
  const Image src = make_test_frame(Size{24, 16}, 4);
  std::stringstream ss;
  write_aei(src, ss);
  const Image back = read_aei(ss);
  EXPECT_EQ(back, src);
}

TEST(Io, RejectsMalformedStreams) {
  std::stringstream not_pgm("JUNKDATA");
  EXPECT_THROW(read_pgm(not_pgm), IoError);
  std::stringstream not_aei("XXXX\x01\x02");
  EXPECT_THROW(read_aei(not_aei), IoError);
  std::stringstream truncated("P5\n4 4\n255\nab");
  EXPECT_THROW(read_pgm(truncated), IoError);
}

// Header dimensions are checked against one pixel cap before anything is
// allocated, so a hostile header is an IoError, not an allocator failure.
TEST(Io, RejectsImplausibleDimensions) {
  std::stringstream huge_pgm("P5\n2147483647 2147483647\n255\n");
  EXPECT_THROW(read_pgm(huge_pgm), IoError);
  std::stringstream huge_aei;
  huge_aei.write("AEI1", 4);
  for (int field = 0; field < 2; ++field)
    huge_aei.write("\xff\xff\xff\x7f", 4);  // INT32_MAX, little endian
  huge_aei.write("\0\0\0\0", 4);
  EXPECT_THROW(read_aei(huge_aei), IoError);
}

TEST(Io, PgmHonorsComments) {
  std::stringstream ss;
  ss << "P5\n# a comment line\n2 1\n255\n";
  ss.put(static_cast<char>(42));
  ss.put(static_cast<char>(43));
  const Image img = read_pgm(ss);
  EXPECT_EQ(img.at(0, 0).y, 42);
  EXPECT_EQ(img.at(1, 0).y, 43);
}

TEST(Io, RgbConversionNeutralChromaIsGray) {
  const Rgb rgb = to_rgb(Pixel::gray(100));
  EXPECT_EQ(rgb.r, 100);
  EXPECT_EQ(rgb.g, 100);
  EXPECT_EQ(rgb.b, 100);
}

TEST(Io, PpmEmitsHeaderAndPayload) {
  Image img(2, 1, Pixel::gray(10));
  std::stringstream ss;
  write_ppm(img, ss);
  const std::string s = ss.str();
  EXPECT_EQ(s.rfind("P6\n2 1\n255\n", 0), 0u);
  EXPECT_EQ(s.size(), std::string("P6\n2 1\n255\n").size() + 6);
}

TEST(Io, FileRoundTrip) {
  const Image src = make_test_frame(Size{16, 16}, 8);
  const std::string path = ::testing::TempDir() + "/ae_io_test.aei";
  write_aei(src, path);
  EXPECT_EQ(read_aei(path), src);
  EXPECT_THROW(read_aei(::testing::TempDir() + "/does_not_exist.aei"),
               IoError);
}

}  // namespace
}  // namespace ae::img
