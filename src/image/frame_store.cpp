#include "image/frame_store.hpp"

#include <algorithm>
#include <array>

// The header's macros are no-ops unless the build runs AddressSanitizer.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace ae::img {

/// Most blocks held at once: each is at least kMinBlockBytes.
constexpr std::size_t kMaxBlocks =
    FrameStore::kCapBytes / FrameStore::kMinBlockBytes;

FrameStore::FrameStore() { blocks_.reserve(kMaxBlocks); }

FrameStore::~FrameStore() {
  for (const Block& b : blocks_) {
    ASAN_UNPOISON_MEMORY_REGION(b.ptr, b.bytes);
    ::operator delete(b.ptr);
  }
}

FrameStore& FrameStore::global() {
  static FrameStore* const store = new FrameStore;
  return *store;
}

void* FrameStore::take(std::size_t bytes) {
  if (storable(bytes)) {
    sync::MutexLock lock(mu_);
    // Newest first: the block returned last is the likeliest to be cached.
    const auto it =
        std::find_if(blocks_.rbegin(), blocks_.rend(),
                     [&](const Block& b) { return b.bytes == bytes; });
    if (it == blocks_.rend()) {
      ++stats_.misses;
    } else {
      void* block = it->ptr;
      blocks_.erase(std::next(it).base());
      stats_.held_bytes -= bytes;
      ++stats_.hits;
      ASAN_UNPOISON_MEMORY_REGION(block, bytes);
      return block;
    }
  }
  return ::operator new(bytes);
}

void FrameStore::give(void* block, std::size_t bytes) noexcept {
  if (!storable(bytes)) {
    ::operator delete(block);
    return;
  }
  // Poisoned before it is visible to take(), which unpoisons it again.
  ASAN_POISON_MEMORY_REGION(block, bytes);
  std::array<Block, kMaxBlocks> evicted{};
  std::size_t n_evicted = 0;
  {
    sync::MutexLock lock(mu_);
    while (stats_.held_bytes + bytes > kCapBytes) {
      evicted[n_evicted++] = blocks_.front();
      stats_.held_bytes -= blocks_.front().bytes;
      blocks_.erase(blocks_.begin());
    }
    blocks_.push_back(Block{block, bytes});
    stats_.held_bytes += bytes;
    stats_.held_high_water =
        std::max(stats_.held_high_water, stats_.held_bytes);
  }
  for (std::size_t i = 0; i < n_evicted; ++i) {
    ASAN_UNPOISON_MEMORY_REGION(evicted[i].ptr, evicted[i].bytes);
    ::operator delete(evicted[i].ptr);
  }
}

FrameStoreStats FrameStore::stats() const {
  sync::MutexLock lock(mu_);
  return stats_;
}

FrameStoreStats frame_store_stats() { return FrameStore::global().stats(); }

}  // namespace ae::img
