// Fixed-capacity request queue for the controller hot path: an indexed ring
// of stable slots (one contiguous allocation, no per-request heap traffic)
// threaded by an intrusive FIFO list, with a free list for O(1) slot reuse.
//
// Why not a vector/deque: FR-FCFS dequeues from the middle, which costs O(n)
// element moves per request in a contiguous container and invalidates
// references. Here a middle dequeue is an O(1) unlink and slots never move.
//
// On top of the slots the queue maintains structure-of-arrays lanes — one
// int64 per slot — so FR-FCFS arbitration is a masked scan over contiguous
// memory (see controller/soa_kernels.hpp) instead of a pointer walk over
// 56-byte entries:
//
//   arrival_ps  request arrival; INT64_MAX on free slots, which
//               excludes them from both the readiness scan (never "ready")
//               and the min-arrival scan without a separate liveness mask
//   hit_write   bit 1: the slot's row is open in its bank, bit 0: direction.
//               The hit bit is maintained *incrementally*: computed at push
//               and re-derived only when a bank's open row actually changes
//               (row_changed()), which is orders of magnitude rarer than
//               arbitration — so the scan needs no per-slot row lookup
//   inv_seq     descending FIFO age key: older entries carry strictly
//               larger values, making "FIFO-first" a plain max
//   bank_row    packed (bank << 32 | row) for the row_changed() re-derive
//
// The queue also tracks the earliest (arrival, FIFO-order) entry
// incrementally: pushes update the cached minimum in O(1), and only a pop of
// the minimum itself invalidates it, repaired by one lane scan on the next
// query. The controller's not-ready fallback therefore no longer walks the
// queue every issue slot.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "controller/address_mapping.hpp"
#include "controller/request.hpp"

namespace mcm::ctrl {

/// Read-only view of the queue's parallel lanes for the arbitration scan.
/// Every lane has `capacity` entries.
struct QueueLanes {
  const std::int64_t* arrival_ps = nullptr;
  const std::int64_t* hit_write = nullptr;
  const std::int64_t* inv_seq = nullptr;
  std::uint32_t capacity = 0;
};

class RequestQueue {
 public:
  /// Sentinel slot index terminating the FIFO links.
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// arrival lane value marking a free slot (never "ready", never minimal).
  static constexpr std::int64_t kFreeArrival =
      std::numeric_limits<std::int64_t>::max();
  /// hit_write lane bits.
  static constexpr std::int64_t kHitBit = 2;
  static constexpr std::int64_t kWriteBit = 1;
  /// inv_seq starts here and decreases by one per push: older entries have a
  /// strictly larger key, so "FIFO-first" is "largest inv_seq". 2^60 pushes
  /// headroom keeps the key clear of the rank bits the scan packs above it.
  static constexpr std::int64_t kSeqBase = (std::int64_t{1} << 60) - 1;

  struct Entry {
    Request req;
    DecodedAddress da;  // decoded once at enqueue
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
  };

  explicit RequestQueue(std::size_t capacity)
      : slots_(capacity),
        arrival_ps_(capacity, kFreeArrival),
        hit_write_(capacity, 0),
        inv_seq_(capacity, 0),
        bank_row_(capacity, -1) {
    free_.reserve(capacity);
    // Free slots popped back-to-front so the first pushes take slots 0, 1, ...
    for (std::size_t i = capacity; i > 0; --i) {
      free_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return free_.empty(); }

  /// Oldest entry's slot (kNil when empty).
  [[nodiscard]] std::uint32_t head() const { return head_; }
  /// FIFO successor of `slot` (kNil at the tail).
  [[nodiscard]] std::uint32_t next(std::uint32_t slot) const {
    return slots_[slot].next;
  }
  [[nodiscard]] const Entry& entry(std::uint32_t slot) const {
    return slots_[slot];
  }
  [[nodiscard]] const Entry& front() const {
    assert(!empty());
    return slots_[head_];
  }

  [[nodiscard]] QueueLanes lanes() const {
    return QueueLanes{arrival_ps_.data(), hit_write_.data(), inv_seq_.data(),
                      static_cast<std::uint32_t>(slots_.size())};
  }

  /// True when the slot's row is open in its bank (readiness-scan hit bit).
  [[nodiscard]] bool is_row_hit(std::uint32_t slot) const {
    return (hit_write_[slot] & kHitBit) != 0;
  }

  /// Raw hit|write lane value for a slot (kHitBit | kWriteBit composition).
  [[nodiscard]] std::int64_t hit_write(std::uint32_t slot) const {
    return hit_write_[slot];
  }

  /// Temporarily hide a live slot from the readiness and min-arrival scans
  /// (the controller's stream fast path buffers a slot's completion ahead of
  /// its pop; the slot must stop competing in arbitration immediately). The
  /// slot stays FIFO-linked and counted until pop(). The min cache is
  /// dropped rather than repaired: the earliest-slot query cannot run while
  /// masked slots exist (arbitration resumes only after the stream drains).
  void mask_ready(std::uint32_t slot) {
    arrival_ps_[slot] = kFreeArrival;
    if (slot == min_slot_) min_slot_ = kNil;
  }

  /// True when mask_ready() hid this live slot (its pop is still pending).
  [[nodiscard]] bool is_masked(std::uint32_t slot) const {
    return arrival_ps_[slot] == kFreeArrival;
  }

  /// Append at the FIFO tail; returns the slot taken. `open_rows` is the
  /// bank cluster's open-row lane (kNoOpenRow = -1 when precharged), used
  /// to seed the slot's hit bit.
  std::uint32_t push(const Request& r, const DecodedAddress& da,
                     const std::int64_t* open_rows) {
    assert(!full());
    const std::uint32_t s = free_.back();
    free_.pop_back();
    Entry& e = slots_[s];
    e.req = r;
    e.da = da;
    e.next = kNil;
    e.prev = tail_;
    if (tail_ != kNil) {
      slots_[tail_].next = s;
    } else {
      head_ = s;
    }
    tail_ = s;
    ++size_;

    const std::int64_t a = r.arrival.ps();
    const std::int64_t row = da.row;
    arrival_ps_[s] = a;
    hit_write_[s] = (open_rows[da.bank] == row ? kHitBit : 0) |
                    (r.is_write ? kWriteBit : 0);
    inv_seq_[s] = seq_next_--;
    bank_row_[s] = (static_cast<std::int64_t>(da.bank) << 32) | row;
    // Min-arrival upkeep: a strictly smaller arrival displaces the cached
    // minimum; on a tie the incumbent wins (earlier FIFO order).
    if (min_slot_ != kNil && a < arrival_ps_[min_slot_]) min_slot_ = s;
    return s;
  }

  /// Unlink any live slot (head or middle) in O(1); returns its entry.
  Entry pop(std::uint32_t slot) {
    assert(size_ > 0);
    const Entry e = slots_[slot];
    if (e.prev != kNil) {
      slots_[e.prev].next = e.next;
    } else {
      head_ = e.next;
    }
    if (e.next != kNil) {
      slots_[e.next].prev = e.prev;
    } else {
      tail_ = e.prev;
    }
    free_.push_back(slot);
    --size_;
    arrival_ps_[slot] = kFreeArrival;
    if (slot == min_slot_) min_slot_ = kNil;  // repaired lazily on next query
    return e;
  }

  /// Re-derive the hit bits after bank `bank`'s open row changed to
  /// `open_row` (kNoOpenRow = -1 on precharge). One pass over the packed
  /// bank_row lane; called only on ACT/PRE, not per arbitration.
  void row_changed(std::uint32_t bank, std::int64_t open_row) {
    const std::int64_t key_bank = static_cast<std::int64_t>(bank) << 32;
    const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
    for (std::uint32_t s = 0; s < n; ++s) {
      if ((bank_row_[s] >> 32) != (key_bank >> 32)) continue;
      const std::int64_t row = bank_row_[s] & 0xffffffff;
      if (row == open_row) {
        hit_write_[s] |= kHitBit;
      } else {
        hit_write_[s] &= ~kHitBit;
      }
    }
  }

  /// Slot of the earliest (arrival, FIFO-order) live entry. Amortized O(1):
  /// scans the arrival lane only when the cached minimum was popped.
  [[nodiscard]] std::uint32_t earliest_slot() const {
    assert(!empty());
    if (min_slot_ == kNil) min_slot_ = rescan_min();
    return min_slot_;
  }

 private:
  [[nodiscard]] std::uint32_t rescan_min() const {
    std::uint32_t best = kNil;
    std::int64_t best_a = kFreeArrival;
    std::int64_t best_inv = -1;
    const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::int64_t a = arrival_ps_[s];
      if (a < best_a || (a == best_a && inv_seq_[s] > best_inv)) {
        best_a = a;
        best_inv = inv_seq_[s];
        best = s;
      }
    }
    return best;
  }

  std::vector<Entry> slots_;
  std::vector<std::uint32_t> free_;  // reusable slot indices (LIFO)
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;

  std::vector<std::int64_t> arrival_ps_;
  std::vector<std::int64_t> hit_write_;
  std::vector<std::int64_t> inv_seq_;
  std::vector<std::int64_t> bank_row_;  // -1 on never-used slots
  std::int64_t seq_next_ = kSeqBase;
  mutable std::uint32_t min_slot_ = kNil;  // kNil = unknown, rescan on demand
};

}  // namespace mcm::ctrl
