#include "addresslib/kernels/kernel_backend.hpp"

#include <algorithm>
#include <vector>

#include "addresslib/kernels/row_kernels.hpp"
#include "addresslib/scan.hpp"
#include "addresslib/segment_flood.hpp"

namespace ae::alib {
namespace {

// The per-call lowering shared by the intra and segment paths: canonical
// neighborhood offsets -> flat strides, plus the median network when the op
// needs one.  `no_clamp` forwards Call::clamp_free on the streamed intra
// path only; the segment path passes none() — its per-visit op runs through
// the flood's deferred-apply path, which the clamp-free proof does not
// cover.
kern::IntraPlan build_intra_plan(const Call& call, i32 stride,
                                 ChannelMask no_clamp) {
  kern::IntraPlan plan;
  plan.stride = stride;
  plan.mask = call.out_channels;
  plan.no_clamp = no_clamp;
  plan.params = &call.params;
  plan.flat.reserve(call.nbhd.size());
  for (const Point o : call.nbhd.offsets()) {
    const i32 f = o.y * stride + o.x;
    plan.flat.push_back(f);
    if (!(o == Point{0, 0})) plan.flat_neighbors.push_back(f);
  }
  if (call.op == PixelOp::Median)
    plan.median = &kern::median_network(static_cast<i32>(plan.flat.size()));
  return plan;
}

// Interior rectangle: every tap of every pixel inside it is in-bounds.
Rect interior_rect(const Neighborhood& nbhd, i32 w, i32 h) {
  const Rect bbox = nbhd.bounding_box();
  const i32 min_dx = bbox.x;
  const i32 max_dx = bbox.x + bbox.width - 1;
  const i32 min_dy = bbox.y;
  const i32 max_dy = bbox.y + bbox.height - 1;
  const i32 x_lo = std::min(w, std::max<i32>(0, -min_dx));
  const i32 x_hi = std::max(x_lo, std::min(w, w - std::max<i32>(0, max_dx)));
  const i32 y_lo = std::min(h, std::max<i32>(0, -min_dy));
  const i32 y_hi = std::max(y_lo, std::min(h, h - std::max<i32>(0, max_dy)));
  return Rect{x_lo, y_lo, x_hi - x_lo, y_hi - y_lo};
}

}  // namespace

bool KernelBackend::supports(const Call& call) {
  switch (call.mode) {
    case Mode::Inter:
      return kern::lower_inter_row(call.op) != nullptr;
    case Mode::Intra:
      return kern::lower_intra_row(call.op) != nullptr;
    case Mode::Segment:
      // The traversal is sequential either way; the fast path needs only
      // the per-visit op lowering.
      return kern::lower_intra_row(call.op) != nullptr;
  }
  return false;
}

CallResult KernelBackend::execute(const Call& call, const img::Image& a,
                                  const img::Image* b,
                                  SegmentRunInfo& info) const {
  if (!supports(call)) return execute_functional(call, a, b, info);
  validate_call(call, a, b);
  info = SegmentRunInfo{};
  if (call.mode == Mode::Inter) return execute_inter(call, a, *b);
  if (call.mode == Mode::Segment) return execute_segment(call, a, info);
  return execute_intra(call, a);
}

CallResult execute(const Call& call, const img::Image& a, const img::Image* b,
                   SegmentRunInfo& info, const KernelOptions& options) {
  return KernelBackend(options).execute(call, a, b, info);
}

CallResult KernelBackend::execute_inter(const Call& call, const img::Image& a,
                                        const img::Image& b) const {
  const i32 w = a.width();
  const i32 h = a.height();
  CallResult result;
  // Unfilled: every inter row kernel starts by copying its row of `a`.
  result.output = img::Image::for_overwrite(a.size());

  const kern::InterRowFn row_fn = kern::lower_inter_row(call.op);
  const kern::FusedRowPlan fused(call.fused);
  const i32 grain = std::max<i32>(1, options_.row_grain);
  const i32 bands = h > 0 ? (h + grain - 1) / grain : 0;
  std::vector<SideAccum> band_side(static_cast<std::size_t>(bands));

  const img::Pixel* pa = a.pixels().data();
  const img::Pixel* pb = b.pixels().data();
  img::Pixel* po = result.output.pixels().data();

  pool().parallel_rows(h, grain, [&](i32 y0, i32 y1) {
    SideAccum& side = band_side[static_cast<std::size_t>(y0 / grain)];
    for (i32 y = y0; y < y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(w);
      kern::InterRowArgs args;
      args.a = pa + row;
      args.b = pb + row;
      args.out = po + row;
      args.n = w;
      args.mask = call.out_channels;
      args.no_clamp = call.clamp_free;
      args.params = &call.params;
      args.side = &side;
      row_fn(args);
      if (!fused.empty()) fused.run(po + row, w, side);
    }
  });

  for (const SideAccum& s : band_side) result.side.merge(s);
  result.stats.pixels = a.pixel_count();
  return result;
}

CallResult KernelBackend::execute_intra(const Call& call,
                                        const img::Image& a) const {
  const i32 w = a.width();
  const i32 h = a.height();
  CallResult result;
  // Unfilled: each row below is border cells plus an interior row kernel
  // that starts by copying its span of `a`, together every pixel.
  result.output = img::Image::for_overwrite(a.size());

  // Lower the neighborhood once: canonical offsets -> flat strides.
  const kern::IntraPlan plan = build_intra_plan(call, w, call.clamp_free);

  const Rect interior = interior_rect(call.nbhd, w, h);
  const i32 x_lo = interior.x;
  const i32 x_hi = interior.x + interior.width;
  const i32 y_lo = interior.y;
  const i32 y_hi = interior.y + interior.height;

  const kern::IntraRowFn row_fn = kern::lower_intra_row(call.op);
  const kern::FusedRowPlan fused(call.fused);
  const i32 grain = std::max<i32>(1, options_.row_grain);
  const i32 bands = h > 0 ? (h + grain - 1) / grain : 0;
  std::vector<SideAccum> band_side(static_cast<std::size_t>(bands));

  const img::Pixel* pa = a.pixels().data();
  img::Pixel* po = result.output.pixels().data();

  pool().parallel_rows(h, grain, [&](i32 y0, i32 y1) {
    SideAccum& side = band_side[static_cast<std::size_t>(y0 / grain)];
    // Border cells run the exact interpreter path (window + apply_intra),
    // so border handling is bit-exact by construction, not by re-derivation.
    ImageWindow window(a, call.border, call.params.border_constant);
    const auto cell = [&](i32 x, i32 y) {
      window.move_to(Point{x, y});
      po[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
         static_cast<std::size_t>(x)] =
          apply_intra(call.op, call.params, call.nbhd, window,
                      call.in_channels, call.out_channels, side);
    };
    for (i32 y = y0; y < y1; ++y) {
      if (y < y_lo || y >= y_hi || x_hi <= x_lo) {
        for (i32 x = 0; x < w; ++x) cell(x, y);
      } else {
        for (i32 x = 0; x < x_lo; ++x) cell(x, y);
        const std::size_t base = static_cast<std::size_t>(y) *
                                     static_cast<std::size_t>(w) +
                                 static_cast<std::size_t>(x_lo);
        kern::IntraRowArgs args;
        args.center = pa + base;
        args.out = po + base;
        args.n = x_hi - x_lo;
        args.plan = &plan;
        args.side = &side;
        row_fn(args);
        for (i32 x = x_hi; x < w; ++x) cell(x, y);
      }
      // Fused pointwise stages sweep the finished row in place; their side
      // contributions are commutative sums, so band order is invisible.
      if (!fused.empty())
        fused.run(po + static_cast<std::size_t>(y) *
                           static_cast<std::size_t>(w),
                  w, side);
    }
  });

  for (const SideAccum& s : band_side) result.side.merge(s);
  result.stats.pixels = a.pixel_count();
  return result;
}

CallResult KernelBackend::execute_segment(const Call& call,
                                          const img::Image& a,
                                          SegmentRunInfo& info) const {
  const i32 w = a.width();
  CallResult result;
  result.output = a;
  // Fresh labelings start from a clean Alfa plane; incremental calls
  // (respect_existing_labels) keep the labels they grow around.
  if (call.segment.write_ids && !call.segment.respect_existing_labels)
    result.output.fill_channel(Channel::Alfa, 0);

  // Reachability pre-pass: the exact flood below allocates its claim map
  // over reach.region instead of the frame, so a sparse flood touches
  // memory proportional to the segment, not the image.
  const SegmentReachability reach = probe_segment_reachability(a, call.segment);
  const Rect region = reach.region;

  const kern::IntraPlan plan = build_intra_plan(call, w, ChannelMask::none());
  const kern::IntraRowFn row_fn = kern::lower_intra_row(call.op);
  const Rect interior = interior_rect(call.nbhd, w, a.height());
  ImageWindow window(a, call.border, call.params.border_constant);
  const img::Pixel* pa = a.pixels().data();
  img::Pixel* po = result.output.pixels().data();

  // Pass 1 — traversal only.  The visitor records each claim into a
  // region-local id plane and nothing else, so the flood loop stays tight.
  std::vector<SegmentId> ids(static_cast<std::size_t>(region.width) *
                                 static_cast<std::size_t>(region.height),
                             0);
  SegmentTable<SegmentInfo> table;
  const SegmentTraversalStats traversal = detail::flood_segments(
      a, call.segment, table, region, [&](const SegmentVisit& v) {
        ids[static_cast<std::size_t>(v.position.y - region.y) *
                static_cast<std::size_t>(region.width) +
            static_cast<std::size_t>(v.position.x - region.x)] = v.segment;
      });

  // Pass 2 — deferred op application over maximal claimed runs.  The op
  // reads only the input image and each visited pixel is written exactly
  // once, so batching is invisible to the result; interior spans hit the
  // vectorized row kernels (n == run length) instead of per-pixel n == 1
  // calls, and border pixels run the exact interpreter path.
  const i32 run_y_end = region.y + region.height;
  const i32 run_x_end = region.x + region.width;
  for (i32 y = region.y; y < run_y_end; ++y) {
    const SegmentId* row_ids =
        ids.data() + static_cast<std::size_t>(y - region.y) *
                         static_cast<std::size_t>(region.width);
    const std::size_t row_base =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    const bool interior_row =
        y >= interior.y && y < interior.y + interior.height;
    i32 x = region.x;
    while (x < run_x_end) {
      if (row_ids[x - region.x] == 0) {
        ++x;
        continue;
      }
      i32 run_end = x + 1;
      while (run_end < run_x_end && row_ids[run_end - region.x] != 0)
        ++run_end;
      i32 mid_lo = run_end;
      i32 mid_hi = run_end;
      if (interior_row && interior.width > 0) {
        mid_lo = std::min(std::max(x, interior.x), run_end);
        mid_hi = std::max(mid_lo,
                          std::min(run_end, interior.x + interior.width));
      }
      const auto cell = [&](i32 cx) {
        window.move_to(Point{cx, y});
        po[row_base + static_cast<std::size_t>(cx)] =
            apply_intra(call.op, call.params, call.nbhd, window,
                        call.in_channels, call.out_channels, result.side);
      };
      for (i32 cx = x; cx < mid_lo; ++cx) cell(cx);
      if (mid_hi > mid_lo) {
        kern::IntraRowArgs args;
        args.center = pa + row_base + static_cast<std::size_t>(mid_lo);
        args.out = po + row_base + static_cast<std::size_t>(mid_lo);
        args.n = mid_hi - mid_lo;
        args.plan = &plan;
        args.side = &result.side;
        row_fn(args);
      }
      for (i32 cx = mid_hi; cx < run_end; ++cx) cell(cx);
      if (call.segment.write_ids) {
        for (i32 cx = x; cx < run_end; ++cx)
          po[row_base + static_cast<std::size_t>(cx)].alfa =
              row_ids[cx - region.x];
      }
      x = run_end;
    }
  }
  result.segments = table.records();
  result.stats.pixels = traversal.processed_pixels;
  // The seed copy above touched every input pixel; report it so the
  // backends can price the traffic (it is not free just because no
  // kernel ran on it).
  result.stats.passthrough_pixels = a.pixel_count();
  result.stats.table_reads = table.reads();
  result.stats.table_writes = table.writes();
  info.processed_pixels = traversal.processed_pixels;
  info.criterion_tests = traversal.criterion_tests;
  return result;
}

}  // namespace ae::alib
