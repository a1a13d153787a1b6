#include "serve/snapshot.hpp"

#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/fault.hpp"

namespace ae::serve {
namespace {

// The decoder validates enum fields against these bounds so a structurally
// sound ShardSnapshot never carries an out-of-range discriminant, even if a
// blob with a colliding checksum were ever presented.
constexpr u8 kMaxMode = static_cast<u8>(alib::Mode::Segment);
constexpr u8 kMaxOp = static_cast<u8>(alib::PixelOp::GmePerspective);
constexpr u8 kMaxScan = static_cast<u8>(alib::ScanOrder::ColumnMajor);
constexpr u8 kMaxBorder = 3;  // Replicate/Reflect/Wrap/Constant
constexpr u8 kMaxConnectivity = static_cast<u8>(alib::Connectivity::Eight);

[[noreturn]] void fail(const std::string& what) {
  throw SnapshotCorruption("snapshot blob rejected: " + what);
}

[[noreturn]] void fail_checksum(const std::string& what) {
  throw SnapshotChecksumMismatch("snapshot blob rejected: " + what);
}

class Writer {
 public:
  void u8v(u8 v) { bytes_.push_back(v); }
  void u16v(u16 v) {
    for (int i = 0; i < 2; ++i) bytes_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void u32v(u32 v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void u64v(u64 v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void i32v(i32 v) { u32v(static_cast<u32>(v)); }
  void f64v(double v) { u64v(std::bit_cast<u64>(v)); }
  void str(const std::string& s) {
    u32v(static_cast<u32>(s.size()));
    for (const char c : s) bytes_.push_back(static_cast<u8>(c));
  }
  std::vector<u8> take() { return std::move(bytes_); }

 private:
  std::vector<u8> bytes_;
};

class Reader {
 public:
  Reader(const u8* data, std::size_t size) : data_(data), size_(size) {}

  u8 u8v() { return take(1)[0]; }
  u16 u16v() {
    const u8* p = take(2);
    return static_cast<u16>(p[0] | (p[1] << 8));
  }
  u32 u32v() {
    const u8* p = take(4);
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
  }
  u64 u64v() {
    const u64 lo = u32v();
    return lo | (static_cast<u64>(u32v()) << 32);
  }
  i32 i32v() { return static_cast<i32>(u32v()); }
  double f64v() { return std::bit_cast<double>(u64v()); }
  std::string str() {
    const u32 n = u32v();
    const u8* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  /// Element-count field guarded against truncated payloads: each element
  /// needs at least `min_bytes_each` more bytes, so a count that promises
  /// more than the remaining payload is malformed, not an allocation.
  u32 count(std::size_t min_bytes_each) {
    const u32 n = u32v();
    if (min_bytes_each > 0 && !fits(n, min_bytes_each))
      fail("element count exceeds remaining payload");
    return n;
  }
  /// Whether `n` elements of `bytes_each` bytes fit in what is left.
  bool fits(u64 n, std::size_t bytes_each) const {
    return n <= (size_ - pos_) / bytes_each;
  }
  bool done() const { return pos_ == size_; }

 private:
  const u8* take(std::size_t n) {
    if (n > size_ - pos_) fail("truncated payload");
    const u8* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  const u8* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void write_image(Writer& w, const img::Image& image) {
  w.i32v(image.width());
  w.i32v(image.height());
  for (const img::Pixel& p : image.pixels()) {
    w.u32v(p.lower_word());
    w.u32v(p.upper_word());
  }
}

img::Image read_image(Reader& r) {
  const i32 width = r.i32v();
  const i32 height = r.i32v();
  if (width < 0 || height < 0) fail("negative frame dimensions");
  const u64 area = static_cast<u64>(width) * static_cast<u64>(height);
  // Checked before allocating: forged dimensions under a valid checksum
  // must not reach the allocator.
  if (!r.fits(area, 8)) fail("frame dimensions exceed remaining payload");
  img::Image image(width, height);
  for (u64 i = 0; i < area; ++i) {
    const u32 lower = r.u32v();
    const u32 upper = r.u32v();
    image.pixels()[i] = img::Pixel::from_words(lower, upper);
  }
  return image;
}

void write_points(Writer& w, const std::vector<Point>& points) {
  w.u32v(static_cast<u32>(points.size()));
  for (const Point p : points) {
    w.i32v(p.x);
    w.i32v(p.y);
  }
}

std::vector<Point> read_points(Reader& r) {
  const u32 n = r.count(8);
  std::vector<Point> points;
  points.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    Point p;
    p.x = r.i32v();
    p.y = r.i32v();
    points.push_back(p);
  }
  return points;
}

void write_call(Writer& w, const alib::Call& call) {
  w.u8v(static_cast<u8>(call.mode));
  w.u8v(static_cast<u8>(call.op));
  w.u8v(static_cast<u8>(call.scan));
  w.u8v(static_cast<u8>(call.border));
  w.u8v(call.in_channels.bits());
  w.u8v(call.out_channels.bits());

  const alib::OpParams& params = call.params;
  w.u32v(static_cast<u32>(params.coeffs.size()));
  for (const i32 c : params.coeffs) w.i32v(c);
  w.u32v(static_cast<u32>(params.table.size()));
  for (const u16 t : params.table) w.u16v(t);
  w.u32v(static_cast<u32>(params.warp_params.size()));
  for (const double p : params.warp_params) w.f64v(p);
  w.i32v(params.shift);
  w.i32v(params.bias);
  w.i32v(params.threshold);
  w.i32v(params.scale_num);
  w.u32v(params.border_constant.lower_word());
  w.u32v(params.border_constant.upper_word());

  write_points(w, call.nbhd.offsets());
  w.str(call.nbhd.name());

  const alib::SegmentSpec& seg = call.segment;
  write_points(w, seg.seeds);
  w.u8v(static_cast<u8>(seg.connectivity));
  w.i32v(seg.luma_threshold);
  w.i32v(seg.chroma_threshold);
  w.u8v(seg.write_ids ? 1 : 0);
  w.u8v(seg.respect_existing_labels ? 1 : 0);
  w.u16v(seg.id_base);
}

alib::Call read_call(Reader& r) {
  alib::Call call;
  const u8 mode = r.u8v();
  if (mode > kMaxMode) fail("call mode out of range");
  call.mode = static_cast<alib::Mode>(mode);
  const u8 op = r.u8v();
  if (op > kMaxOp) fail("pixel op out of range");
  call.op = static_cast<alib::PixelOp>(op);
  const u8 scan = r.u8v();
  if (scan > kMaxScan) fail("scan order out of range");
  call.scan = static_cast<alib::ScanOrder>(scan);
  const u8 border = r.u8v();
  if (border > kMaxBorder) fail("border policy out of range");
  call.border = static_cast<alib::BorderPolicy>(border);
  call.in_channels = ChannelMask{r.u8v()};
  call.out_channels = ChannelMask{r.u8v()};

  alib::OpParams params;
  const u32 coeffs = r.count(4);
  params.coeffs.reserve(coeffs);
  for (u32 i = 0; i < coeffs; ++i) params.coeffs.push_back(r.i32v());
  const u32 table = r.count(2);
  params.table.reserve(table);
  for (u32 i = 0; i < table; ++i) params.table.push_back(r.u16v());
  const u32 warp = r.count(8);
  params.warp_params.reserve(warp);
  for (u32 i = 0; i < warp; ++i) params.warp_params.push_back(r.f64v());
  params.shift = r.i32v();
  params.bias = r.i32v();
  params.threshold = r.i32v();
  params.scale_num = r.i32v();
  const u32 border_lower = r.u32v();
  const u32 border_upper = r.u32v();
  params.border_constant = img::Pixel::from_words(border_lower, border_upper);
  call.params = std::move(params);

  std::vector<Point> offsets = read_points(r);
  std::string nbhd_name = r.str();
  // Neighborhood's constructor re-validates (9-line height limit); a
  // malformed shape is a corruption finding, not an assert.
  try {
    call.nbhd = alib::Neighborhood(std::move(offsets), std::move(nbhd_name));
  } catch (const Error& e) {
    fail(std::string("bad neighborhood: ") + e.what());
  }

  alib::SegmentSpec seg;
  seg.seeds = read_points(r);
  const u8 connectivity = r.u8v();
  if (connectivity > kMaxConnectivity) fail("connectivity out of range");
  seg.connectivity = static_cast<alib::Connectivity>(connectivity);
  seg.luma_threshold = r.i32v();
  seg.chroma_threshold = r.i32v();
  seg.write_ids = r.u8v() != 0;
  seg.respect_existing_labels = r.u8v() != 0;
  seg.id_base = r.u16v();
  call.segment = std::move(seg);
  return call;
}

u32 payload_crc(const std::vector<u8>& payload) {
  // Byte stream folded into the word-oriented CRC the transport uses; the
  // tail is zero-padded so the value is well defined for any length.
  core::Crc32 crc;
  for (std::size_t i = 0; i < payload.size(); i += 4) {
    u32 word = 0;
    for (std::size_t b = 0; b < 4 && i + b < payload.size(); ++b)
      word |= static_cast<u32>(payload[i + b]) << (8 * b);
    crc.add(word);
  }
  return crc.value();
}

}  // namespace

SnapshotVersionMismatch::SnapshotVersionMismatch(u32 found, u32 expected)
    : SnapshotError([&] {
        std::ostringstream os;
        os << "snapshot format version " << found
           << " is not the supported version " << expected;
        return os.str();
      }()),
      found_(found),
      expected_(expected) {}

u32 frame_crc(const img::Image& frame) {
  core::Crc32 crc;
  crc.add(static_cast<u32>(frame.width()));
  crc.add(static_cast<u32>(frame.height()));
  for (const img::Pixel& p : frame.pixels()) {
    crc.add(p.lower_word());
    crc.add(p.upper_word());
  }
  return crc.value();
}

std::vector<u8> serialize_snapshot(const ShardSnapshot& snapshot,
                                   core::FaultInjector* fault) {
  Writer payload;
  payload.i32v(snapshot.shard_index);
  payload.u64v(snapshot.clock_cycles);

  payload.u8v(static_cast<u8>(snapshot.breaker.state));
  payload.i32v(snapshot.breaker.consecutive_failed_calls);
  payload.i32v(snapshot.breaker.cooldown_used);

  for (const core::ResidencySnapshot::Slot& slot :
       snapshot.residency.input_slots) {
    payload.u64v(slot.hash);
    payload.u64v(slot.last_use);
    payload.u8v(slot.transient ? 1 : 0);
  }
  payload.u64v(snapshot.residency.result_hash);
  payload.u64v(snapshot.residency.use_clock);

  payload.u32v(static_cast<u32>(snapshot.frames.size()));
  for (const ResidentFrame& frame : snapshot.frames) {
    payload.u64v(frame.hash);
    write_image(payload, *frame.content);
    payload.u32v(frame_crc(*frame.content));
  }

  payload.u32v(static_cast<u32>(snapshot.queued.size()));
  for (const alib::Call& call : snapshot.queued) write_call(payload, call);

  std::vector<u8> body = payload.take();
  Writer blob;
  blob.u32v(kSnapshotMagic);
  blob.u32v(kSnapshotVersion);
  blob.u64v(body.size());
  const u32 crc = payload_crc(body);

  std::vector<u8> out = blob.take();
  const std::size_t payload_offset = out.size();
  out.insert(out.end(), body.begin(), body.end());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(crc >> (8 * i)));

  if (fault != nullptr) {
    // Bit rot at rest: the flip lands after the checksum was computed, so
    // a corrupted blob is always detectable (single-bit errors never
    // collide in CRC-32).
    u32 flip = 0;
    const i64 at = fault->corrupt_snapshot(body.size(), flip);
    if (at >= 0)
      out[payload_offset + static_cast<std::size_t>(at)] ^=
          static_cast<u8>(flip);
  }
  return out;
}

ShardSnapshot parse_snapshot(const std::vector<u8>& blob) {
  Reader header(blob.data(), blob.size());
  if (header.u32v() != kSnapshotMagic) fail("bad magic");
  const u32 version = header.u32v();
  if (version != kSnapshotVersion)
    throw SnapshotVersionMismatch(version, kSnapshotVersion);
  const u64 payload_size = header.u64v();
  // Framing: magic+version (8) + length (8) + payload + crc (4).
  if (blob.size() != 20 + payload_size) fail("framing length mismatch");

  const std::vector<u8> payload(blob.begin() + 16,
                                blob.begin() + 16 +
                                    static_cast<std::ptrdiff_t>(payload_size));
  Reader trailer(blob.data() + 16 + payload_size, 4);
  if (payload_crc(payload) != trailer.u32v())
    fail_checksum("payload checksum mismatch");

  Reader r(payload.data(), payload.size());
  ShardSnapshot snapshot;
  snapshot.shard_index = r.i32v();
  snapshot.clock_cycles = r.u64v();

  const u8 breaker = r.u8v();
  if (breaker > static_cast<u8>(core::BreakerState::HalfOpen))
    fail("breaker state out of range");
  snapshot.breaker.state = static_cast<core::BreakerState>(breaker);
  snapshot.breaker.consecutive_failed_calls = r.i32v();
  snapshot.breaker.cooldown_used = r.i32v();

  for (core::ResidencySnapshot::Slot& slot : snapshot.residency.input_slots) {
    slot.hash = r.u64v();
    slot.last_use = r.u64v();
    slot.transient = r.u8v() != 0;
  }
  snapshot.residency.result_hash = r.u64v();
  snapshot.residency.use_clock = r.u64v();
  if (!snapshot.residency.consistent())
    fail("residency use clock out of range");

  const u32 frames = r.count(20);
  snapshot.frames.reserve(frames);
  for (u32 i = 0; i < frames; ++i) {
    const u64 hash = r.u64v();
    img::Image content = read_image(r);
    if (r.u32v() != frame_crc(content)) fail_checksum("resident frame CRC");
    // The key steers affinity routing and residency after a restore, so it
    // must be the content's own key, not merely a well-formed one.
    if (hash != core::frame_content_hash(content)) fail("resident frame key");
    snapshot.frames.push_back(
        {hash, std::make_shared<const img::Image>(std::move(content))});
  }

  const u32 queued = r.count(1);
  snapshot.queued.reserve(queued);
  for (u32 i = 0; i < queued; ++i) snapshot.queued.push_back(read_call(r));

  if (!r.done()) fail("trailing bytes after the last field");
  return snapshot;
}

}  // namespace ae::serve
