// Parameter sweeps reproducing the paper's evaluation:
//  - Fig. 3: frequency sweep (200-533 MHz) x channel counts, 720p30 frame.
//  - Figs. 4/5: format sweep (the five H.264 levels) x channel counts at a
//    fixed clock (400 MHz in the paper); Fig. 4 reads access time from the
//    points, Fig. 5 reads average power.
//
// The sweep functions are implemented by the exploration engine
// (src/explore): points run on a closed loop of worker threads (`threads` =
// 0 means MCM_THREADS / hardware_concurrency) with per-point deterministic
// seeding, and the returned vector is identical regardless of thread count.
// Targets calling them must link mcm_explore.
#pragma once

#include <cstdint>
#include <vector>

#include "core/frame_simulator.hpp"

namespace mcm::core {

struct ExperimentConfig {
  multichannel::SystemConfig base;  // freq / channels overridden per point
  video::UseCaseParams usecase;     // level overridden per point
  FrameSimOptions sim;

  /// The paper's defaults: next-gen mobile DDR, RBC, open page, FR-FCFS,
  /// power-down after the first idle cycle, 16 B interleave.
  [[nodiscard]] static ExperimentConfig paper_defaults();
};

struct SweepPoint {
  double freq_mhz = 0;
  std::uint32_t channels = 0;
  video::H264Level level = video::H264Level::k31;
  FrameSimResult result;
};

/// DDR2-range clock frequencies the paper sweeps in Fig. 3.
[[nodiscard]] std::vector<double> paper_frequencies();

/// Channel counts evaluated throughout the paper.
[[nodiscard]] std::vector<std::uint32_t> paper_channel_counts();

/// Fig. 3: access time vs clock frequency for one encoded frame at `level`
/// (the paper uses level 3.1, 720p30).
[[nodiscard]] std::vector<SweepPoint> sweep_frequency(
    const ExperimentConfig& cfg, video::H264Level level = video::H264Level::k31,
    unsigned threads = 0);

/// Figs. 4 and 5: every H.264 level x channel count at a fixed frequency.
[[nodiscard]] std::vector<SweepPoint> sweep_formats(const ExperimentConfig& cfg,
                                                    double freq_mhz = 400.0,
                                                    unsigned threads = 0);

}  // namespace mcm::core
