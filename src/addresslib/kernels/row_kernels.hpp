// Internal interface between the KernelBackend and its specialized row
// kernels (inter_kernels.cpp / intra_kernels.cpp).
//
// A row kernel is the per-call lowering of one pixel operation: dispatch
// (op, channel mask, neighborhood shape) is resolved ONCE when the call is
// lowered, and the returned function runs a flat, branch-free-per-pixel loop
// over raw pixel pointers.  Intra kernels additionally receive the
// neighborhood pre-resolved to flat offsets (`dy * stride + dx`), which is
// exactly the address arithmetic the paper says dominates the software path
// — here it is one add per tap instead of an accessor chain.
//
// Not part of the public AddressLib API; include kernel_backend.hpp instead.
#pragma once

#include <type_traits>
#include <vector>

#include "addresslib/ops.hpp"
#include "image/pixel.hpp"

namespace ae::alib::kern {

static_assert(std::is_trivially_copyable_v<img::Pixel>,
              "row kernels memcpy pixel rows");

/// One inter row: out[0..n) = op(a[0..n), b[0..n)) on the masked channels,
/// everything else passed through from `a`.
struct InterRowArgs {
  const img::Pixel* a = nullptr;
  const img::Pixel* b = nullptr;
  img::Pixel* out = nullptr;
  i32 n = 0;
  ChannelMask mask;                  ///< output channel mask
  /// Channels whose raw op result is proven in [0, channel max] for every
  /// pixel (Call::clamp_free) — the kernel may take a clamp-free lowering.
  ChannelMask no_clamp;
  const OpParams* params = nullptr;
  SideAccum* side = nullptr;
};
using InterRowFn = void (*)(const InterRowArgs&);

/// The specialized row kernel of an inter op, or nullptr when the op has no
/// flat lowering (GmeAccumAffine and GmePerspective).
InterRowFn lower_inter_row(PixelOp op);

/// One compare step of a median selection network.  `lo`/`hi` are tap
/// indices; the step kinds are the pruned forms of a compare-exchange
/// (lo <- min, hi <- max): when only one output is still live on the path
/// to the median, the dead half of the exchange is dropped.
enum class MedianStepKind : u8 {
  Exchange,  ///< v[lo] <- min, v[hi] <- max
  MinInto,   ///< v[lo] <- min(v[lo], v[hi])
  MaxInto,   ///< v[hi] <- max(v[lo], v[hi])
};
struct MedianStep {
  u8 lo = 0;
  u8 hi = 0;
  MedianStepKind kind = MedianStepKind::Exchange;
};

/// A branch-free selection network: running `steps` over the tap values
/// leaves the median (the value std::nth_element puts at taps/2) in
/// v[median_index].  Every step is a min/max pair, so the same step list
/// runs on scalars and on SIMD lanes.
struct MedianNetwork {
  i32 taps = 0;
  i32 median_index = 0;
  std::vector<MedianStep> steps;
};

/// Builds the selection network for `taps` values: the hand-tuned
/// 19-exchange median-of-9 network for 3x3 windows, a Batcher
/// merge-exchange sorting network pruned to the median output for every
/// other size.  `taps` must be in [1, kMaxNeighborhoodLines^2].
MedianNetwork build_median_network(i32 taps);

/// Cached per-size networks (built once, thread-safe).
const MedianNetwork& median_network(i32 taps);

/// Per-call lowering of an intra op: the neighborhood resolved to flat
/// pixel offsets from the row stride, plus the parameters the interior loop
/// reads.  Built once per call by the KernelBackend.
struct IntraPlan {
  std::vector<i32> flat;            ///< nbhd offsets as dy * stride + dx
  std::vector<i32> flat_neighbors;  ///< flat without the center offset
  i32 stride = 0;                   ///< input row stride in pixels
  ChannelMask mask;                 ///< output channel mask
  /// Channels whose raw op result is proven in [0, channel max] for every
  /// pixel (Call::clamp_free) — the kernel may take a clamp-free lowering.
  ChannelMask no_clamp;
  const OpParams* params = nullptr;
  const MedianNetwork* median = nullptr;  ///< set when op == Median
};

/// One interior row segment: every neighborhood tap of every pixel in
/// [center, center + n) is in-bounds, so taps are unchecked flat loads.
struct IntraRowArgs {
  const img::Pixel* center = nullptr;  ///< input pixel at the first column
  img::Pixel* out = nullptr;           ///< output pixel at the first column
  i32 n = 0;
  const IntraPlan* plan = nullptr;
  SideAccum* side = nullptr;
};
using IntraRowFn = void (*)(const IntraRowArgs&);

/// The specialized interior row kernel of an intra op, or nullptr when the
/// op has no flat lowering.
IntraRowFn lower_intra_row(PixelOp op);

/// One fused pointwise stage applied in place to a finished output row
/// (fused_kernels.cpp).  Stages read nothing but the pixel itself, so the
/// pass runs after the base row kernel — the same value order the
/// interpreter's per-pixel chain produces.
using FusedRowFn = void (*)(const FusedStage& stage, img::Pixel* out, i32 n,
                            SideAccum* side);

/// The specialized row lowering of a fused stage op; never nullptr (ops
/// without a flat specialization fall back to a per-pixel kernel that calls
/// the interpreter's stage arithmetic, keeping bit-exactness structural).
FusedRowFn lower_fused_row(PixelOp op);

/// Per-call lowering of a call's fused-stage chain: each stage's row
/// function resolved once, run in order over finished output rows.
class FusedRowPlan {
 public:
  FusedRowPlan() = default;
  explicit FusedRowPlan(const std::vector<FusedStage>& stages) {
    rows_.reserve(stages.size());
    for (const FusedStage& s : stages)
      rows_.push_back(Lowered{&s, lower_fused_row(s.op)});
  }

  bool empty() const { return rows_.empty(); }

  void run(img::Pixel* out, i32 n, SideAccum& side) const {
    for (const Lowered& l : rows_) l.fn(*l.stage, out, n, &side);
  }

 private:
  struct Lowered {
    const FusedStage* stage;
    FusedRowFn fn;
  };
  std::vector<Lowered> rows_;
};

/// Invokes `f` once per channel present in `m`, passing the channel as a
/// compile-time constant (std::integral_constant<Channel, C>) so the
/// per-channel loops fold their channel accessors.
template <typename F>
inline void for_each_mask_channel(ChannelMask m, F&& f) {
  if (m.contains(Channel::Y))
    f(std::integral_constant<Channel, Channel::Y>{});
  if (m.contains(Channel::U))
    f(std::integral_constant<Channel, Channel::U>{});
  if (m.contains(Channel::V))
    f(std::integral_constant<Channel, Channel::V>{});
  if (m.contains(Channel::Alfa))
    f(std::integral_constant<Channel, Channel::Alfa>{});
  if (m.contains(Channel::Aux))
    f(std::integral_constant<Channel, Channel::Aux>{});
}

}  // namespace ae::alib::kern
