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
//   hit_write   bit 1: the slot's row is open in its bank, bit 0: direction
//   inv_seq     descending FIFO age key: older entries carry strictly
//               larger values, making "FIFO-first" a plain max
//   bank_row    packed (bank << 32 | row) for the hit-bit re-derive; -1 on
//               never-used slots
//
// Hit bits are re-derived lazily. The queue mirrors, per bank, the open row
// its bits currently reflect (hit_rows_), and every live slot's hit bit
// equals (hit_rows_[bank] == row): a push seeds its bit from the mirror.
// ACT and PRE only mark their bank stale (mark_rows_stale(bank), one bit of
// a per-bank mask); sync_rows() then compares only the marked banks with the
// mirror and re-derives, once, those whose open row now differs, before
// anything reads a hit bit. A closed-page ACT+PRE returns the bank to the
// mirrored row and costs one comparison, no pass; a conflict's PRE+ACT
// costs one pass.
//
// Two more summaries let the common closed-page pick skip the scan
// (no_hit_pick()): the number of banks open in the mirror, kept on the
// re-derive path only, and an upper bound on live arrivals, reset when the
// queue empties. With every bank closed no slot can be a hit, and with every
// slot arrived FR-FCFS then reduces to "oldest slot in the bus direction,
// else the head": a FIFO walk that stops at the first slot in the bus
// direction.
//
// The queue also tracks the earliest (arrival, FIFO-order) entry
// incrementally: pushes update the cached minimum in O(1), and only a pop of
// the minimum itself invalidates it, repaired by one lane scan on the next
// query. The controller's not-ready fallback therefore no longer walks the
// queue every issue slot.
#pragma once

#include <bit>
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
  /// Open-row value of a precharged bank (the bank cluster's kNoOpenRow).
  static constexpr std::int64_t kNoRow = -1;

  struct Entry {
    Request req;
    DecodedAddress da;  // decoded once at enqueue
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
  };

  /// `banks` sizes the per-bank open-row mirror; every pushed bank id must
  /// be below it, and it may not exceed the stale mask's 64 bits.
  RequestQueue(std::size_t capacity, std::uint32_t banks)
      : slots_(capacity),
        arrival_ps_(capacity, kFreeArrival),
        hit_write_(capacity, 0),
        inv_seq_(capacity, 0),
        bank_row_(capacity, -1),
        hit_rows_(banks, kNoRow) {
    assert(banks <= 64);
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
    assert(stale_banks_ == 0);
    return QueueLanes{arrival_ps_.data(), hit_write_.data(), inv_seq_.data(),
                      static_cast<std::uint32_t>(slots_.size())};
  }

  /// True when the slot's row is open in its bank (readiness-scan hit bit).
  [[nodiscard]] bool is_row_hit(std::uint32_t slot) const {
    return (hit_write(slot) & kHitBit) != 0;
  }

  /// Raw hit|write lane value for a slot (kHitBit | kWriteBit composition).
  [[nodiscard]] std::int64_t hit_write(std::uint32_t slot) const {
    assert(stale_banks_ == 0);
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

  /// Append at the FIFO tail; returns the slot taken. The slot's hit bit is
  /// seeded from the bank's mirrored open row, so it is exact once the rows
  /// are synced.
  std::uint32_t push(const Request& r, const DecodedAddress& da) {
    assert(!full());
    assert(da.bank < hit_rows_.size());
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
    hit_write_[s] =
        (hit_rows_[da.bank] == row ? kHitBit : 0) | (r.is_write ? kWriteBit : 0);
    inv_seq_[s] = seq_next_--;
    bank_row_[s] = (static_cast<std::int64_t>(da.bank) << 32) | row;
    max_arrival_ = a > max_arrival_ ? a : max_arrival_;
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
    if (size_ == 0) max_arrival_ = kNoArrival;
    if (slot == min_slot_) min_slot_ = kNil;  // repaired lazily on next query
    return e;
  }

  /// Note that `bank`'s open row changed (ACT or PRE). The hit bits stay
  /// as they are until sync_rows(); nothing may read them before that.
  void mark_rows_stale(std::uint32_t bank) {
    assert(bank < hit_rows_.size());
    stale_banks_ |= std::uint64_t{1} << bank;
  }

  /// Re-derive the hit bits of every marked bank whose open row
  /// (`open_rows`, the bank cluster's lane) differs from the row its bits
  /// reflect. One pass over the bank_row lane per such bank; nothing when
  /// no bank was marked since the last sync.
  void sync_rows(const std::int64_t* open_rows) {
    if (stale_banks_ != 0) [[unlikely]] resync(open_rows);
  }

  /// The FR-FCFS winner without a scan when every bank is closed (so no
  /// slot is a row hit) and every live slot has arrived by `horizon_ps`:
  /// ranks then differ only in the direction bit, so the winner is the
  /// oldest slot travelling in bus direction `dir` (0 read, 1 write, -1 cold
  /// bus: none), else the head. A FIFO walk from the head finds it; it stops
  /// at the first slot in the bus direction. Returns kNil when either
  /// condition fails; the masked scan decides then. Precondition: no masked
  /// slot.
  [[nodiscard]] std::uint32_t no_hit_pick(std::int64_t horizon_ps,
                                          std::int64_t dir) const {
    assert(stale_banks_ == 0);
    if (open_banks_ != 0 || max_arrival_ > horizon_ps) return kNil;
    if (dir >= 0) {
      for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
        if ((hit_write_[s] & kWriteBit) == dir) return s;
      }
    }
    return head_;
  }

  /// Slot of the earliest (arrival, FIFO-order) live entry. Amortized O(1):
  /// scans the arrival lane only when the cached minimum was popped.
  [[nodiscard]] std::uint32_t earliest_slot() const {
    assert(!empty());
    if (min_slot_ == kNil) min_slot_ = rescan_min();
    return min_slot_;
  }

 private:
  static constexpr std::int64_t kNoArrival =
      std::numeric_limits<std::int64_t>::min();

  // Out of line: rare next to the sync check, which inlines into the
  // controller's process_one().
  [[gnu::noinline]] void resync(const std::int64_t* open_rows) {
    for (std::uint64_t m = stale_banks_; m != 0; m &= m - 1) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
      if (open_rows[b] != hit_rows_[b]) rederive(b, open_rows[b]);
    }
    stale_banks_ = 0;
  }

  /// Set every bank-`bank` slot's hit bit to (row == open_row) and record
  /// open_row as the row the bits now reflect. Free slots keep the bank_row
  /// of their last request and are rewritten too; nothing reads their bits.
  void rederive(std::uint32_t bank, std::int64_t open_row) {
    const std::int64_t key_bank = bank;
    const std::uint32_t n = static_cast<std::uint32_t>(slots_.size());
    for (std::uint32_t s = 0; s < n; ++s) {
      if ((bank_row_[s] >> 32) != key_bank) continue;
      const bool hit = (bank_row_[s] & 0xffffffff) == open_row;
      hit_write_[s] = (hit_write_[s] & kWriteBit) | (hit ? kHitBit : 0);
    }
    open_banks_ += (open_row != kNoRow) - (hit_rows_[bank] != kNoRow);
    hit_rows_[bank] = open_row;
  }

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
  std::vector<std::int64_t> bank_row_;
  std::int64_t seq_next_ = kSeqBase;
  mutable std::uint32_t min_slot_ = kNil;  // kNil = unknown, rescan on demand

  std::vector<std::int64_t> hit_rows_;  // per bank: the row the bits reflect
  int open_banks_ = 0;                  // banks with hit_rows_ != kNoRow
  std::uint64_t stale_banks_ = 0;       // bit b: ACT/PRE on b since the last sync
  std::int64_t max_arrival_ = kNoArrival;  // >= every live arrival
};

}  // namespace mcm::ctrl
