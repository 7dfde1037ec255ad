// Declarative design-space description: an ExperimentSpec is a grid over the
// paper's architectural axes (channel count, clock frequency, H.264 level,
// page policy, scheduler, interleave granularity, address map) on top of a
// base ExperimentConfig. expand() flattens the grid into a point list in a
// fixed nesting order; each point derives a deterministic RNG seed from its
// own coordinates (not its position), so exploration results are invariant
// to grid reordering, pruning, and thread count.
//
// Specs parse from the repo's "key = value" Config format (docs/
// exploration.md documents every key); list-valued axes are comma-separated:
//
//   grid.channels   = 1, 2, 4, 8
//   grid.freq_mhz   = 200, 266, 333, 400, 466, 533
//   grid.levels     = 3.1, 4.0          # or "all"
//   grid.page_policy = open, timeout
//   screen.enabled  = true
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/experiments.hpp"

namespace mcm::explore {

/// One grid coordinate: the axes the engine varies per run.
struct ExplorePoint {
  double freq_mhz = 400.0;
  std::uint32_t channels = 4;
  video::H264Level level = video::H264Level::k31;
  ctrl::PagePolicy page_policy = ctrl::PagePolicy::kOpen;
  ctrl::SchedulerPolicy scheduler = ctrl::SchedulerPolicy::kFrFcfs;
  std::uint32_t interleave_bytes = 16;
  ctrl::AddressMux mux = ctrl::AddressMux::kRBC;

  /// Heterogeneous channel-class assignment as a compact token: one char per
  /// channel from {d = mobile_ddr, f = fast_edram, s = slow_pcm}; channel i
  /// binds token[i % len], so "fs" means fast/slow alternating at any
  /// channel count. An optional "@G" suffix bundles consecutive groups of G
  /// channels onto a shared-TSV vault interface. Empty = homogeneous legacy
  /// system.
  std::string classes;

  /// Memory-system config for this point: `base` with the axes applied.
  [[nodiscard]] multichannel::SystemConfig system(
      const core::ExperimentConfig& base) const;

  /// Use-case params for this point (level applied).
  [[nodiscard]] video::UseCaseParams usecase(
      const core::ExperimentConfig& base) const;

  /// Deterministic per-point RNG seed: a splitmix64 chain over (base_seed,
  /// point coordinates). Independent of grid position and thread count.
  [[nodiscard]] std::uint64_t seed(std::uint64_t base_seed) const;

  /// "L4.0/4ch/400MHz" (+ non-default policy axes when they differ from the
  /// paper baseline) — stable label for reports and logs.
  [[nodiscard]] std::string label() const;

  [[nodiscard]] bool operator==(const ExplorePoint&) const = default;
};

struct ExperimentSpec {
  core::ExperimentConfig base = core::ExperimentConfig::paper_defaults();

  std::vector<double> freq_mhz = {400.0};
  std::vector<std::uint32_t> channels = {1, 2, 4, 8};
  std::vector<video::H264Level> levels{video::kAllLevels.begin(),
                                       video::kAllLevels.end()};
  std::vector<ctrl::PagePolicy> page_policies = {ctrl::PagePolicy::kOpen};
  std::vector<ctrl::SchedulerPolicy> schedulers = {
      ctrl::SchedulerPolicy::kFrFcfs};
  std::vector<std::uint32_t> interleave_bytes = {16};
  std::vector<ctrl::AddressMux> address_muxes = {ctrl::AddressMux::kRBC};

  /// Channel-class tokens (see ExplorePoint::classes); "" = homogeneous.
  std::vector<std::string> classes = {""};

  std::uint64_t base_seed = 1;

  [[nodiscard]] std::size_t size() const;

  /// Flatten to the point list. Nesting order (outer to inner): level,
  /// channels, freq, page policy, scheduler, interleave, mux, classes.
  /// Throws ConfigError when any axis is empty.
  [[nodiscard]] std::vector<ExplorePoint> expand() const;

  /// The paper's evaluation grid: 5 levels x {1,2,4,8} channels x the six
  /// Fig. 3 frequencies (120 points), paper-default policies.
  [[nodiscard]] static ExperimentSpec paper_grid();

  /// Parse from the key-value Config format (unknown "grid."/"base."/
  /// "screen." keys throw ConfigError; see docs/exploration.md). Every
  /// expanded point's system and the base run options pass validate(), or
  /// ConfigError names the failing field.
  [[nodiscard]] static ExperimentSpec from_config(const Config& cfg);
  [[nodiscard]] static ExperimentSpec from_file(const std::string& path);
};

/// Comma-separated list split, trimmed; empty items rejected (ConfigError).
[[nodiscard]] std::vector<std::string> split_list(std::string_view text);

/// Validate a channel-class token ("dfs", "f", "ds@2", ...; "none"/"-" maps
/// to the empty homogeneous token). Throws ConfigError on a bad token;
/// returns the canonical form to store in ExplorePoint::classes.
[[nodiscard]] std::string parse_classes_token(std::string_view token);

}  // namespace mcm::explore
