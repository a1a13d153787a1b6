// KernelBackend — the specialized host execution path for AddressLib calls.
//
// The generic interpreter (execute_functional) re-dispatches per pixel: scan
// driver -> op switch -> channel loop -> window/border resolution per tap.
// The kernel backend lowers a call ONCE into a row kernel and runs flat
// loops over raw channel pointers:
//   * inter ops become a single branch-free pass over both frames;
//   * intra ops split each row into border segments (handled by the exact
//     generic ImageWindow + apply_intra path) and an interior segment where
//     every neighborhood tap is a precomputed flat offset from the stride.
// Rows are banded across a par::ThreadPool; the band partition depends only
// on (rows, grain) and per-band side accumulators are merged in band order,
// so the output — pixels AND side accumulators — is bit-exact with
// execute_functional for any thread count.
//
// Segment calls take a third path in two passes.  First a relaxed
// reachability pre-pass (probe_segment_reachability) bounds the region the
// exact flood can touch, and the shared frontier core (segment_flood.hpp)
// runs with a region-local claim map and a visitor that only records each
// claim into a region-local id plane — the traversal loop carries no op
// work.  Then the op is applied over maximal claimed runs row by row:
// interior spans go through the same flat-offset row kernel the intra path
// uses with n == run length (so sorting-network medians run 8-wide), border
// pixels through the exact interpreter window.  Deferral is invisible in
// the result: the op reads only the input frame, each visited pixel is
// written exactly once, and side accumulators are commutative sums.  The
// traversal is inherently sequential, so it does not band across the pool;
// the win is sparsity and batching, not threads.  GmeAccum is lowered like
// Sad: i64 normal-equation sums per band, merged in band order.  Calls with
// no lowering transparently fall back to the interpreter: GmeAccumAffine
// needs the pixel position, which the inter row kernels do not receive, and
// GmePerspective sums in binary64, so merging band sums would not be
// bit-exact.
//
// alib::execute (below) is the host's one pixel dispatch: every backend
// computes its pixels through it and adds only its own accounting on top.
// execute_functional stays the oracle the tests hold every backend to.
#pragma once

#include "addresslib/functional.hpp"
#include "common/parallel.hpp"

namespace ae::alib {

/// Tuning knobs of the kernel backend.
struct KernelOptions {
  /// Pool the row bands are scheduled on; nullptr uses
  /// par::ThreadPool::shared().
  par::ThreadPool* pool = nullptr;
  /// Rows per band.  Small grains expose more parallelism, large grains
  /// amortize scheduling; the output never depends on it.
  i32 row_grain = 16;
};

class KernelBackend {
 public:
  explicit KernelBackend(KernelOptions options = {}) : options_(options) {}

  /// True when `call` has a specialized lowering.  Unsupported calls still
  /// execute correctly via execute(), through the interpreter.
  static bool supports(const Call& call);

  /// Executes one call, bit-exact with execute_functional.  Validates the
  /// call; reports segment traversal stats.
  CallResult execute(const Call& call, const img::Image& a,
                     const img::Image* b, SegmentRunInfo& info) const;

  CallResult execute(const Call& call, const img::Image& a,
                     const img::Image* b = nullptr) const {
    SegmentRunInfo unused;
    return execute(call, a, b, unused);
  }

  const KernelOptions& options() const { return options_; }

 private:
  CallResult execute_inter(const Call& call, const img::Image& a,
                           const img::Image& b) const;
  CallResult execute_intra(const Call& call, const img::Image& a) const;
  CallResult execute_segment(const Call& call, const img::Image& a,
                             SegmentRunInfo& info) const;
  par::ThreadPool& pool() const {
    return options_.pool ? *options_.pool : par::ThreadPool::shared();
  }

  KernelOptions options_;
};

/// The one host execution entry point: runs `call` on a KernelBackend with
/// `options` (the shared pool by default), which uses the interpreter only
/// for calls with no lowering (GmeAccumAffine, GmePerspective).  Bit-exact
/// with execute_functional, SegmentRunInfo included, so every cost model
/// priced from `info` sees the same inputs it would from the interpreter.
CallResult execute(const Call& call, const img::Image& a, const img::Image* b,
                   SegmentRunInfo& info, const KernelOptions& options = {});

}  // namespace ae::alib
