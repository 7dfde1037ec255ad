// Execution of the paper's state-machine load model on memoized streams.
//
// run_sequential_frames issues each stage's requests in stream order
// through MemorySystem::push() (the threshold rule described in
// multichannel/memory_system.hpp) and closes each stage with drain(), the
// stage barrier.
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
/// stream) against `sys` on the calling thread. Requests carry global
/// addresses; sys routes them and books its per-channel route counters;
/// channel stats/energy/trace accumulate in the channels as usual.
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
