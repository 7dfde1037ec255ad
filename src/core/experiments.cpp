// Paper-default configuration and sweep axes. The sweep functions declared
// in experiments.hpp are implemented by the exploration engine
// (src/explore/sweeps.cpp) so they run in parallel on the orchestrator.
#include "core/experiments.hpp"

namespace mcm::core {

ExperimentConfig ExperimentConfig::paper_defaults() {
  ExperimentConfig cfg;
  cfg.base.device = dram::DeviceSpec::next_gen_mobile_ddr();
  cfg.base.freq = Frequency{400.0};
  cfg.base.channels = 4;
  cfg.base.interleave_bytes = 16;
  cfg.base.mux = ctrl::AddressMux::kRBC;
  cfg.base.controller.page_policy = ctrl::PagePolicy::kOpen;
  cfg.base.controller.scheduler = ctrl::SchedulerPolicy::kFrFcfs;
  cfg.base.controller.queue_depth = 8;
  cfg.base.controller.powerdown_idle_cycles = 1;
  return cfg;
}

std::vector<double> paper_frequencies() {
  return {200.0, 266.0, 333.0, 400.0, 466.0, 533.0};
}

std::vector<std::uint32_t> paper_channel_counts() { return {1, 2, 4, 8}; }

}  // namespace mcm::core
