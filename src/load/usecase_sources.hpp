// Builds the per-stage traffic sources for the Fig. 1 video recording chain:
// one TrafficSource per processing state, with volumes taken from the
// UseCaseModel (so the simulated traffic matches Table I exactly) and
// addresses from the SurfaceLayout.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "load/source.hpp"
#include "video/surfaces.hpp"
#include "video/usecase.hpp"

namespace mcm::load {

struct LoadOptions {
  /// Interleave granularity between a stage's read and write streams; 64 B
  /// models the cache-line miss/evict pattern of an SMP streaming kernel.
  std::uint32_t chunk_bytes = 64;
  std::uint32_t burst_bytes = 16;  // one request per DRAM burst

  /// Replace the sequential-pass encoder reference stream with the
  /// macroblock-level motion-window pattern (same volume, different
  /// locality) - the address-pattern ablation.
  bool motion_window_encoder = false;
  std::uint64_t seed = 1;
};

/// One frame's worth of stage sources, in Fig. 1 processing order.
[[nodiscard]] std::vector<std::unique_ptr<TrafficSource>> build_stage_sources(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    const LoadOptions& opt = {});

}  // namespace mcm::load
