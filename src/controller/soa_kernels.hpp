// Data-oriented arbitration kernel over the request queue's SoA lanes.
//
// One masked pass answers FR-FCFS selection for the whole queue: per slot,
// readiness (arrival <= horizon), the precomputed row-hit bit and the
// bus-direction bit fold into a single signed 64-bit key
//
//     key = rank << 60 | inv_seq        rank = 2*row_hit + same_direction
//
// and the winner is the key maximum — identical, including FIFO tie-breaks,
// to the old linked-list walk (inv_seq decreases per push, so older entries
// carry strictly larger keys at equal rank). Free slots carry
// arrival = INT64_MAX and can never be ready, so no liveness mask is needed.
// The row-hit bit lives in the hit_write lane, maintained incrementally by
// the queue (seeded at push, re-derived on the rare ACT/PRE row changes), so
// the scan touches exactly three contiguous lanes and needs no per-slot
// open-row lookup. The golden model in src/verify/ shares none of this code;
// mcm_fuzz differentially certifies the scan against it.
#pragma once

#include <cstdint>
#include <string_view>

#include "controller/request_queue.hpp"

namespace mcm::ctrl::kernels {

/// Rank bits packed above inv_seq in the arbitration key.
inline constexpr std::int64_t kHitKey = std::int64_t{2} << 60;
inline constexpr std::int64_t kDirKey = std::int64_t{1} << 60;

/// FR-FCFS masked scan over the queue lanes. Among slots with
/// arrival <= horizon_ps, returns the slot maximizing (rank, FIFO age):
/// rank = 2 * row_hit_bit + (write_bit == dir_match). Pass dir_match = -1
/// when the bus direction is unknown (cold bus); the write bit is 0/1 so
/// nothing matches. Returns RequestQueue::kNil when no slot is ready.
/// Kept in the header so the controller's pick path pays no call overhead.
[[nodiscard]] inline std::uint32_t arb_scan(const QueueLanes& q,
                                            std::int64_t horizon_ps,
                                            std::int64_t dir_match) {
  std::int64_t best_key = -1;
  std::uint32_t best = RequestQueue::kNil;
  for (std::uint32_t s = 0; s < q.capacity; ++s) {
    if (q.arrival_ps[s] > horizon_ps) continue;  // free slot or not ready
    const std::int64_t hw = q.hit_write[s];
    // (hw & kHitBit) << 60 lifts the lane's hit bit (value 2) to kHitKey.
    std::int64_t key = q.inv_seq[s] | ((hw & RequestQueue::kHitBit) << 60);
    if ((hw & RequestQueue::kWriteBit) == dir_match) key |= kDirKey;
    if (key > best_key) {
      best_key = key;
      best = s;
    }
  }
  return best;
}

// Provenance constants for perfbench, which stamps the arbitration ISA into
// every result file. The scan above is the only one, so they always report
// "scalar"; they go when the benchmark drops the stamp in its next revision.
enum class SimdLevel : std::uint8_t { kScalar = 0 };

[[nodiscard]] constexpr std::string_view to_string(SimdLevel) {
  return "scalar";
}
[[nodiscard]] constexpr std::string_view compiled_isa() { return "scalar"; }
[[nodiscard]] constexpr SimdLevel active_level() { return SimdLevel::kScalar; }

}  // namespace mcm::ctrl::kernels
