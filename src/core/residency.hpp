// ResidencyTable — which frame occupies which ZBT bank pair.
//
// The board's six ZBT banks form two input bank pairs and one result pair
// (paper section 3).  A residency-aware driver skips the transfer of an input
// that is already on board: in an input pair it is reused as is, in the
// result pair it is relocated by a bank-to-bank copy.  This table is the one
// model of that state.  EngineSession keys it by frame content hash at run
// time; aeplan and aealloc key it by frame id ahead of execution; the farm
// edits it (through snapshots) when it restores, migrates or rebalances
// frames.  They therefore agree on every transfer, reuse and relocation by
// construction.
//
// The rules:
//   * Inside one call, a slot feeds at most one input (the claim set): an
//     inter call whose two inputs share content still needs both pairs.
//   * The use clock advances once per call, so both inputs of a call are
//     equally recent.
//   * The default victim among unclaimed slots is a transient slot (a
//     relocated result, typically consumed once) before a non-transient one,
//     then the least recently used; ties go to the lower slot.
//
// Callers adjust the policy with function objects, never std::function, so
// the per-call path allocates nothing: a victim order replaces the default
// rule (sparing() adds advisory pins; aealloc passes Belady's
// farthest-next-use), and `reusable = false` makes a resident copy count for
// nothing.
//
// Header-only: ae_core links ae_analysis, so the analysis layer may use only
// header-inline core code.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <limits>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ae::core {

/// How an input reaches its bank pair.
enum class TransferKind : u8 {
  Transferred,  ///< full PCI upload (not on board)
  Reused,       ///< already resident in an input bank pair — no PCI traffic
  Relocated,    ///< resident in the result banks; on-board copy, no PCI
};

/// Serializable view of a content-keyed ResidencyTable — what a shard
/// snapshot needs to rebuild the timing-model state of a board
/// (serve/snapshot.hpp).  Functional results never depend on residency, so
/// restoring this state is bit-exactness-safe by construction; it only
/// changes what the model charges for future transfers.
struct ResidencySnapshot {
  struct Slot {
    u64 hash = 0;  ///< frame content hash; 0 means "empty slot"
    u64 last_use = 0;
    bool transient = false;
  };
  std::array<Slot, 2> input_slots{};
  u64 result_hash = 0;
  u64 use_clock = 0;

  /// True when a real table could have produced these fields: no slot was
  /// used after the clock, and the clock is far from wrapping.  One stamp
  /// per call means a board needs 2^63 calls to pass half the range; a
  /// larger clock comes from corrupt or hostile bytes, and restoring it
  /// would wrap the next stamps to 0 and invert LRU order for good.
  bool consistent() const {
    if (use_clock > std::numeric_limits<u64>::max() / 2) return false;
    return std::all_of(input_slots.begin(), input_slots.end(),
                       [&](const Slot& s) { return s.last_use <= use_clock; });
  }
};

template <class Key, Key kEmpty = Key{}>
class ResidencyTable {
 public:
  static constexpr std::size_t kSlots = 2;

  struct Slot {
    Key key = kEmpty;
    u64 last_use = 0;
    bool transient = false;  ///< relocated result, unlikely to be reused
  };

  struct Acquired {
    TransferKind kind = TransferKind::Transferred;
    std::size_t slot = 0;
  };

  /// The default victim order: true when `a` should be evicted before `b`.
  struct LruOrder {
    bool operator()(const Slot& a, const Slot& b) const {
      if (a.transient != b.transient) return a.transient;
      return a.last_use < b.last_use;
    }
  };

  /// The default order with advisory pins: a slot whose key satisfies
  /// `spare` is evicted only when every unclaimed slot is spared, and then
  /// by the default order as if nothing were pinned — a call always finds
  /// a victim, so pins can never wedge a board.
  template <class Spare>
  static auto sparing(Spare spare) {
    return [spare](const Slot& a, const Slot& b) {
      const bool spare_a = spare(a.key);
      const bool spare_b = spare(b.key);
      if (spare_a != spare_b) return spare_b;
      return LruOrder{}(a, b);
    };
  }

  ResidencyTable() = default;
  explicit ResidencyTable(const ResidencySnapshot& snapshot)
    requires std::same_as<Key, u64>
  {
    restore(snapshot);
  }

  /// Places one input of the current call and claims its slot.  A resident
  /// copy in an unclaimed input pair is reused; the previous result is
  /// relocated; anything else is transferred into the victim `order` picks
  /// among the unclaimed slots.  With `reusable` false the frame is
  /// transferred even when on board.  `key` must not be kEmpty.
  template <class Order = LruOrder>
  Acquired acquire(const Key& key, bool reusable = true, Order order = {}) {
    AE_ASSERT(key != kEmpty, "residency key names no frame");
    const u64 stamp = use_clock_ + 1;
    if (reusable) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        if (claimed_[s] || slots_[s].key != key) continue;
        claimed_[s] = true;
        slots_[s].last_use = stamp;
        slots_[s].transient = false;  // proven reusable
        return {TransferKind::Reused, s};
      }
    }
    const bool relocated = reusable && result_ == key;
    const std::size_t victim = pick_victim(order);
    claimed_[victim] = true;
    slots_[victim] = Slot{key, stamp, relocated};
    return {relocated ? TransferKind::Relocated : TransferKind::Transferred,
            victim};
  }

  /// Ends the current call: `result` now occupies the result banks, the
  /// claims clear and the clock advances.
  void finish_call(const Key& result) {
    result_ = result;
    claimed_ = {};
    ++use_clock_;
  }

  /// True when `key` occupies an input pair or the result banks.
  bool holds(const Key& key) const {
    if (key == kEmpty) return false;
    return result_ == key ||
           std::any_of(slots_.begin(), slots_.end(),
                       [&](const Slot& s) { return s.key == key; });
  }

  /// Forgets `key` wherever it is resident.
  void evict(const Key& key) {
    if (key == kEmpty) return;
    for (Slot& s : slots_)
      if (s.key == key) s = Slot{};
    if (result_ == key) result_ = kEmpty;
  }

  /// Installs `key` into an empty input pair as used now, between calls.
  /// Returns false, changing nothing, when both pairs are occupied.
  bool install_free(const Key& key) {
    AE_ASSERT(key != kEmpty, "residency key names no frame");
    for (Slot& s : slots_)
      if (s.key == kEmpty) {
        s = Slot{key, ++use_clock_, false};
        return true;
      }
    return false;
  }

  const std::array<Slot, kSlots>& slots() const { return slots_; }
  const Key& result() const { return result_; }

  ResidencySnapshot snapshot() const
    requires std::same_as<Key, u64>
  {
    ResidencySnapshot out;
    for (std::size_t s = 0; s < kSlots; ++s)
      out.input_slots[s] = {slots_[s].key, slots_[s].last_use,
                            slots_[s].transient};
    out.result_hash = result_;
    out.use_clock = use_clock_;
    return out;
  }

  /// Replaces the residency with `snapshot`'s.  The use clock never rewinds,
  /// so frames touched after the restore stay ahead of the restored ones.
  void restore(const ResidencySnapshot& snapshot)
    requires std::same_as<Key, u64>
  {
    AE_EXPECTS(snapshot.consistent(), "residency snapshot clock out of range");
    for (std::size_t s = 0; s < kSlots; ++s)
      slots_[s] = {snapshot.input_slots[s].hash,
                   snapshot.input_slots[s].last_use,
                   snapshot.input_slots[s].transient};
    result_ = snapshot.result_hash;
    claimed_ = {};
    use_clock_ = std::max(use_clock_, snapshot.use_clock);
  }

 private:
  template <class Order>
  std::size_t pick_victim(Order& order) const {
    std::size_t best = kSlots;
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (claimed_[s]) continue;
      if (best == kSlots || order(slots_[s], slots_[best])) best = s;
    }
    AE_ASSERT(best < kSlots,
              "no free input pair: both slots claimed by the current call");
    return best;
  }

  std::array<Slot, kSlots> slots_{};
  std::array<bool, kSlots> claimed_{};
  Key result_ = kEmpty;
  u64 use_clock_ = 0;
};

}  // namespace ae::core
