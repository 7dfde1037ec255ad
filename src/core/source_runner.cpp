#include "core/source_runner.hpp"

namespace mcm::core {

SourceRunResult run_stage_sources(
    const multichannel::SystemConfig& system,
    std::vector<std::unique_ptr<load::TrafficSource>> sources, Time window_hint) {
  multichannel::MemorySystem sys(system);
  const std::uint32_t burst = system.device.org.bytes_per_burst();

  SourceRunResult out;
  Time stage_start = Time::zero();
  for (auto& src : sources) {
    src->set_start(stage_start);
    for (; !src->done(); src->advance()) {
      sys.push(src->head());
      out.bytes += burst;
    }
    stage_start = max(stage_start, sys.drain());
  }

  out.access_time = stage_start;
  out.window = max(stage_start, window_hint);
  sys.finalize(out.window);
  out.stats = sys.stats();
  out.power = sys.power(out.window);
  out.total_power_mw = out.power.total_mw;
  out.dram_power_mw = out.power.dram_mw;
  out.interface_power_mw = out.power.interface_mw;
  return out;
}

}  // namespace mcm::core
