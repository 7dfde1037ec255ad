// Implements the core sweep API (core/experiments.hpp) on top of the
// exploration engine, so every figure bench and example inherits the
// parallel closed loop, MCM_THREADS sizing, and the deterministic merge
// contract. Lives in mcm_explore (not mcm_core) to keep the dependency
// arrow explore -> core one-way.
#include "core/experiments.hpp"
#include "explore/orchestrator.hpp"

namespace mcm::core {
namespace {

/// Run `spec` through the engine and flatten to the legacy SweepPoint list
/// (expansion order, identical regardless of thread count).
std::vector<SweepPoint> run_spec(const explore::ExperimentSpec& spec,
                                 unsigned threads) {
  explore::OrchestratorOptions opt;
  opt.threads = threads;
  const explore::ExploreRun run = explore::Orchestrator(opt).run(spec);
  std::vector<SweepPoint> points;
  points.reserve(run.results.size());
  for (const auto& r : run.results) {
    SweepPoint p;
    p.freq_mhz = r.point.freq_mhz;
    p.channels = r.point.channels;
    p.level = r.point.level;
    p.result = r.sim;
    points.push_back(std::move(p));
  }
  return points;
}

/// Grid axes shared by both sweeps. The legacy sweep contract iterates
/// channels outermost, so mirror that in the expansion order via the spec's
/// fixed nesting (level, channels, freq) and reorder below when needed.
explore::ExperimentSpec base_spec(const ExperimentConfig& cfg) {
  explore::ExperimentSpec spec;
  spec.base = cfg;
  spec.interleave_bytes = {cfg.base.interleave_bytes};
  spec.address_muxes = {cfg.base.mux};
  spec.page_policies = {cfg.base.controller.page_policy};
  spec.schedulers = {cfg.base.controller.scheduler};
  spec.base_seed = cfg.sim.load.seed;
  return spec;
}

}  // namespace

std::vector<SweepPoint> sweep_frequency(const ExperimentConfig& cfg,
                                        video::H264Level level,
                                        unsigned threads) {
  explore::ExperimentSpec spec = base_spec(cfg);
  spec.levels = {level};
  spec.channels = paper_channel_counts();
  spec.freq_mhz = paper_frequencies();
  // Single level: expansion order (channels, freq) already matches the
  // legacy output order.
  return run_spec(spec, threads);
}

std::vector<SweepPoint> sweep_formats(const ExperimentConfig& cfg,
                                      double freq_mhz, unsigned threads) {
  explore::ExperimentSpec spec = base_spec(cfg);
  spec.freq_mhz = {freq_mhz};
  spec.channels = paper_channel_counts();
  auto points = run_spec(spec, threads);
  // Legacy order is channels-outer / level-inner; the spec expands
  // level-outer. Reorder deterministically rather than change the engine's
  // fixed nesting.
  std::vector<SweepPoint> ordered;
  ordered.reserve(points.size());
  for (const std::uint32_t ch : paper_channel_counts()) {
    for (const video::H264Level level : video::kAllLevels) {
      for (auto& p : points) {
        if (p.channels == ch && p.level == level) {
          ordered.push_back(std::move(p));
          break;
        }
      }
    }
  }
  return ordered;
}

}  // namespace mcm::core
