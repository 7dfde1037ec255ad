// Memory configuration explorer: reads a simple key=value config (file or
// defaults), runs the chosen use case, and prints a one-line verdict. Meant
// as the scripting-friendly entry point for parameter studies.
//
//   $ ./memory_explorer                       # paper defaults, 1080p30
//   $ ./memory_explorer my.cfg
//
// Config keys (all optional):
//   channels=4  freq_mhz=400  interleave_bytes=16  mux=RBC|BRC|RCB|RBC-XOR
//   page_policy=open|closed|timeout  scheduler=frfcfs|fcfs  queue_depth=16
//   powerdown_idle_cycles=1   level=3.1|3.2|4|4.2|5.2  frames=1
//   chunk_bytes=64            motion_window_encoder=false
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/mcm.hpp"

using namespace mcm;

int main(int argc, char** argv) {
  Config cfg;
  try {
    if (argc > 1) cfg = Config::from_file(argv[1]);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 1;
  }

  try {
    multichannel::SystemConfig memory;
    memory.channels = cfg.get_int<std::uint32_t>("channels", 4);
    memory.freq = Frequency{cfg.get_double("freq_mhz", 400.0)};
    memory.interleave_bytes = cfg.get_int<std::uint32_t>("interleave_bytes", 16);
    memory.mux =
        parse_name("mux", cfg.get_string("mux", "RBC"), &ctrl::parse_address_mux);
    memory.controller.page_policy = parse_name(
        "page_policy", cfg.get_string("page_policy", "open"), &ctrl::parse_page_policy);
    memory.controller.scheduler = parse_name(
        "scheduler", cfg.get_string("scheduler", "frfcfs"), &ctrl::parse_scheduler);
    memory.controller.queue_depth = cfg.get_int<std::uint32_t>("queue_depth", 16);
    memory.controller.powerdown_idle_cycles =
        cfg.get_int<int>("powerdown_idle_cycles", 1);

    video::UseCaseParams usecase;
    usecase.level = parse_name("level", cfg.get_string("level", "4"), &video::parse_level);

    core::FrameSimOptions opt;
    opt.frames = cfg.get_int<int>("frames", 1);
    opt.load.chunk_bytes = cfg.get_int<std::uint32_t>("chunk_bytes", 64);
    opt.load.motion_window_encoder = cfg.get_bool("motion_window_encoder", false);
    for (const auto& e : {memory.validate(), opt.validate()}) {
      if (e) throw ConfigError((argc > 1 ? argv[1] : std::string("defaults")) + ": " + e->message());
    }

    const auto r = core::FrameSimulator(opt).run(memory, usecase);
    std::printf(
        "level=%s channels=%u freq=%.0fMHz mux=%s: access=%.2fms "
        "(budget %.2fms, %s) power=%.0fmW rowhit=%.1f%%\n",
        cfg.get_string("level", "4").c_str(), memory.channels, memory.freq.mhz(),
        std::string(to_string(memory.mux)).c_str(), r.access_time.ms(),
        r.frame_period.ms(),
        r.meets_realtime_with_margin ? "ok"
        : r.meets_realtime           ? "marginal"
                                     : "MISSED",
        r.total_power_mw, 100.0 * r.stats.row_hit_rate());
    return r.meets_realtime ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
