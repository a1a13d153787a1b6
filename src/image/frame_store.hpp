// Frame-block store: the pixel allocator behind img::Image.
//
// The board keeps its frames in six ZBT banks that are never handed back
// between calls.  The host allocated a fresh buffer per frame instead, and
// glibc trims a freed CIF frame (811 KB) at the top of the heap straight
// back to the kernel, so the next frame faulted every page in again — on
// the pool threads that band the kernels.  The store keeps freed frame
// blocks mapped and hands each to the next allocation of exactly the same
// byte size; the few frame sizes a workload uses (a CIF frame, its pyramid
// levels) recycle without touching the kernel.
//
// Rules:
//   * blocks under kMinBlockBytes bypass the store (glibc's bins already
//     recycle them without a trim);
//   * the store holds at most kCapBytes; a returned block that does not fit
//     evicts the oldest held blocks, and a block larger than the cap goes
//     straight to operator delete without evicting anything;
//   * under ASan a held block is poisoned, so a use-after-free of a recycled
//     frame still reports.
//
// FrameStore::global() serves every PixelBuffer.  It is never destroyed,
// so an Image with static storage can never outlive it.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"

namespace ae::img {

struct FrameStoreStats {
  u64 hits = 0;     ///< takes served by a held block
  u64 misses = 0;   ///< takes of a storable size that found none
  u64 held_bytes = 0;
  u64 held_high_water = 0;
};

class FrameStore {
 public:
  /// Smallest block the store keeps: a 128x64 frame of 64-bit pixels.
  static constexpr std::size_t kMinBlockBytes = std::size_t{64} << 10;
  /// Most bytes held at once, sized from the misses of the perfbench
  /// workloads' timed loops (3 s runs): the farm workloads miss about once
  /// per run from 4 MiB up; the Table 3 GME loop, whose mosaic render per
  /// sequence (1.0-1.07 MB, a size of its own for each sequence) evicts
  /// pyramid levels, misses 5 times per frame at 4 MiB, 0.2 at 6 MiB and
  /// 0.05 at 8 MiB.  Every held byte stays resident.
  static constexpr std::size_t kCapBytes = std::size_t{6} << 20;

  FrameStore();
  /// Frees the held blocks.
  ~FrameStore();
  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  /// The store behind every PixelBuffer (a leaked function-local static).
  static FrameStore& global();

  /// `bytes` of storage: a held block of exactly that size if there is
  /// one, else a fresh one from operator new.  The content is unspecified.
  void* take(std::size_t bytes);
  /// Returns storage obtained from take() with the same `bytes`.
  void give(void* block, std::size_t bytes) noexcept;

  FrameStoreStats stats() const;

 private:
  struct Block {
    void* ptr;
    std::size_t bytes;
  };
  static bool storable(std::size_t bytes) {
    return bytes >= kMinBlockBytes && bytes <= kCapBytes;
  }

  mutable sync::Mutex mu_;
  /// Oldest first; never more than kCapBytes / kMinBlockBytes entries, so
  /// the capacity reserved up front is never exceeded.
  std::vector<Block> blocks_ AE_GUARDED_BY(mu_);
  FrameStoreStats stats_ AE_GUARDED_BY(mu_);
};

/// FrameStore::global().stats().
FrameStoreStats frame_store_stats();

/// The allocator of PixelBuffer: storage comes from FrameStore::global().
/// Its no-argument construct() leaves the element's bytes as they are, so
/// a buffer resized without a value (Image::for_overwrite) is never filled;
/// every other construct() is the ordinary placement new.
template <class T>
class FrameAllocator {
 public:
  using value_type = T;

  FrameAllocator() = default;
  template <class U>
  FrameAllocator(const FrameAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(FrameStore::global().take(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FrameStore::global().give(p, n * sizeof(T));
  }

  template <class U>
  void construct(U*) noexcept {}
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const FrameAllocator&, const FrameAllocator&) {
    return true;
  }
};

}  // namespace ae::img
