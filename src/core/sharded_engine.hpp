// Execution of the paper's state-machine load model on memoized streams.
//
// The sequential feed (run_sequential_frames) issues each stage's requests
// in stream order on one thread and orders channel service through
// per-channel *thresholds* instead of one global (horizon, channel) heap:
//
//   for request r -> channel j, in stream order (position p):
//     1. j applies the max of thresholds published since its previous
//        position: pop while (horizon_j, j) <lex Tmax, then clear Tmax.
//     2. if j's queue is full: publish T = (horizon_j, j) to every other
//        channel (max-merged into their pending Tmax), then pop j once.
//     3. enqueue r into j.
//   stage end: every channel drains to empty (pending thresholds are
//   subsumed by the full drain).
//
// This is exactly what a heap loop (`while (!try_submit) process_next`)
// does: a full-queue stall there serves globally min-(horizon, channel)
// channels until j's key is the minimum again, i.e. it pops every channel
// k with (h_k, k) < (h_j, j) up to that bound — and between two of k's own
// enqueues only the *largest* such bound matters, so the bounds can be
// applied lazily at k's next position. Cross-channel pop order is
// output-invariant (stats are merged per channel, stage completion is a
// max), which is what makes the lazy application legal.
#pragma once

#include <cstdint>
#include <vector>

#include "load/stream_cache.hpp"
#include "multichannel/memory_system.hpp"

namespace mcm::core {

/// Bookkeeping the frame loop produces.
struct ShardedRunOutput {
  Time end_time = Time::zero();      // t after the last frame
  Time access_accum = Time::zero();  // sum of per-frame busy times
  std::vector<Time> per_frame_access;
  std::uint64_t bytes_first_frame = 0;
  std::vector<std::pair<std::string, std::uint64_t>> first_frame_stages;
  std::vector<Time> first_frame_completed;  // parallel to first_frame_stages
};

/// Run `frame_workloads.size()` frames (entry f = frame f's memoized
/// stream) against `sys` on the calling thread: the threshold loop above.
/// Requests carry global addresses and are routed here. Updates sys's
/// per-channel route counters; channel stats/energy/trace accumulate in the
/// channels as usual.
ShardedRunOutput run_sequential_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period);

/// Forwards to run_sequential_frames; the worker and chunk counts are
/// ignored. Only perfbench calls it; ROADMAP item 1 deletes it.
ShardedRunOutput run_sharded_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period, unsigned sim_threads, unsigned sim_chunk = 0);

/// Always 1. Only perfbench calls it; ROADMAP item 1 deletes it.
[[nodiscard]] unsigned resolve_sim_threads(unsigned requested,
                                           std::uint32_t channels);

/// Always 1. Only perfbench calls it; ROADMAP item 1 deletes it.
[[nodiscard]] unsigned resolve_sim_chunk(unsigned requested);

}  // namespace mcm::core
