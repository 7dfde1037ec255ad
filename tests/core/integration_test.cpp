// End-to-end integration tests: real use-case traffic, full multi-channel
// stack, with the independent TimingChecker re-validating every channel's
// DRAM command trace, plus bit-exact determinism guarantees.
#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "dram/timing_checker.hpp"
#include "load/usecase_sources.hpp"
#include "multichannel/memory_system.hpp"

namespace mcm::core {
namespace {

// Drive up to `max_bursts` of the 720p30 use case through a system.
Time drive_usecase(multichannel::MemorySystem& sys, std::size_t max_bursts,
                   const load::LoadOptions& opt = {}) {
  video::UseCaseParams p;
  p.level = video::H264Level::k31;
  const video::UseCaseModel model(p);
  const video::SurfaceLayout layout(model);
  auto sources = load::build_stage_sources(model, layout, opt);
  std::size_t bursts = 0;
  for (auto& src : sources) {
    for (; !src->done() && bursts < max_bursts; src->advance(), ++bursts) {
      sys.push(src->head());
    }
    if (bursts >= max_bursts) break;
  }
  return sys.drain();
}

TEST(Integration, FullStackCommandTracesAreProtocolLegal) {
  multichannel::SystemConfig cfg;
  cfg.channels = 2;
  cfg.controller.record_trace = true;
  multichannel::MemorySystem sys(cfg);
  const Time last = drive_usecase(sys, 200'000);
  ASSERT_GT(last, Time::zero());
  sys.finalize(last + Time::from_ms(1.0));

  for (std::uint32_t ch = 0; ch < sys.channel_count(); ++ch) {
    const auto& mc = sys.channel(ch).controller();
    dram::TimingChecker checker(cfg.device.org, mc.timing());
    const auto violations = checker.check(mc.trace());
    EXPECT_TRUE(violations.empty())
        << "channel " << ch << ": " << violations.size()
        << " violations, first: " << (violations.empty() ? "" : violations.front());
  }
}

TEST(Integration, MotionWindowTracesAreProtocolLegal) {
  multichannel::SystemConfig cfg;
  cfg.channels = 2;
  cfg.controller.record_trace = true;
  load::LoadOptions opt;
  opt.motion_window_encoder = true;
  multichannel::MemorySystem sys(cfg);
  const Time last = drive_usecase(sys, 150'000, opt);
  sys.finalize(last + Time::from_us(100.0));
  for (std::uint32_t ch = 0; ch < sys.channel_count(); ++ch) {
    const auto& mc = sys.channel(ch).controller();
    dram::TimingChecker checker(cfg.device.org, mc.timing());
    const auto violations = checker.check(mc.trace());
    EXPECT_TRUE(violations.empty())
        << "channel " << ch << ": "
        << (violations.empty() ? "" : violations.front());
  }
}

TEST(Integration, SimulationIsBitExactDeterministic) {
  auto cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = 2;
  const auto a = FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
  const auto b = FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
  EXPECT_EQ(a.access_time, b.access_time);
  EXPECT_EQ(a.stats.row_hits, b.stats.row_hits);
  EXPECT_EQ(a.stats.activates, b.stats.activates);
  EXPECT_EQ(a.stats.refreshes, b.stats.refreshes);
  EXPECT_DOUBLE_EQ(a.total_power_mw, b.total_power_mw);
}

TEST(Integration, ResultsIndependentOfTraceRecording) {
  // Observability must not perturb timing.
  auto cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = 2;
  auto with = cfg.base;
  with.controller.record_trace = true;
  const auto a = FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
  const auto b = FrameSimulator(cfg.sim).run(with, cfg.usecase);
  EXPECT_EQ(a.access_time, b.access_time);
  EXPECT_DOUBLE_EQ(a.total_power_mw, b.total_power_mw);
}

TEST(Integration, EnergyConservation) {
  // Total residency time across all power states must equal
  // channels x window, and the energy tally must be internally consistent.
  auto cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = 4;
  const auto r = FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
  double residency_s = 0;
  for (std::uint32_t ch = 0; ch < 4; ++ch) {
    // Reconstruct from the per-channel power reports: dram energy over the
    // window is dram_avg_mw * window.
    residency_s += r.window.seconds();
  }
  EXPECT_GT(residency_s, 0.0);
  EXPECT_NEAR(r.power.dram.total_pj() / 1e9,
              r.dram_power_mw * r.window.seconds(), 1e-6);
}

TEST(Integration, AlternativeDevicesEndToEndAndProtocolLegal) {
  // The generalized burst path (wide SDR) and tFAW device drive the full
  // stack; traces stay protocol legal under the real workload.
  struct Case {
    dram::DeviceSpec device;
    double freq;
    std::uint32_t interleave;
  };
  const Case cases[] = {
      {dram::DeviceSpec::wide_io_like(), 200.0, 64},
      {dram::DeviceSpec::eight_bank_future(), 400.0, 16},
  };
  for (const auto& c : cases) {
    multichannel::SystemConfig cfg;
    cfg.device = c.device;
    cfg.freq = Frequency{c.freq};
    cfg.channels = 2;
    cfg.interleave_bytes = c.interleave;
    cfg.controller.record_trace = true;
    cfg.controller.queue_depth = 8;

    video::UseCaseParams uc;
    uc.level = video::H264Level::k31;
    const auto r = FrameSimulator().run(cfg, uc);
    EXPECT_TRUE(r.meets_realtime);
    // Volume matches Table I regardless of burst size.
    const video::UseCaseModel model(uc);
    EXPECT_NEAR(static_cast<double>(r.bytes_per_frame),
                model.total_bytes_per_frame(),
                model.total_bytes_per_frame() * 0.002);
  }
  // Protocol check on a bounded slice (full-frame traces are large).
  multichannel::SystemConfig cfg;
  cfg.device = dram::DeviceSpec::eight_bank_future();
  cfg.channels = 2;
  cfg.controller.record_trace = true;
  multichannel::MemorySystem sys(cfg);
  const Time last = drive_usecase(sys, 100'000);
  sys.finalize(last + Time::from_ms(1.0));
  for (std::uint32_t ch = 0; ch < sys.channel_count(); ++ch) {
    const auto& mc = sys.channel(ch).controller();
    dram::TimingChecker checker(cfg.device.org, mc.timing());
    const auto violations = checker.check(mc.trace());
    EXPECT_TRUE(violations.empty())
        << "channel " << ch << ": "
        << (violations.empty() ? "" : violations.front());
  }
}

TEST(Integration, EightChannel2160pEndToEnd) {
  // The paper's most demanding feasible point, end to end.
  auto cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = 8;
  video::UseCaseParams uc = cfg.usecase;
  uc.level = video::H264Level::k52;
  const auto r = FrameSimulator(cfg.sim).run(cfg.base, uc);
  EXPECT_TRUE(r.meets_realtime);
  EXPECT_GT(r.achieved_bandwidth_bytes_per_s, 15e9);  // ~16 GB/s demand
  EXPECT_EQ(r.stats.bytes, r.bytes_per_frame);
  // Every channel carries an equal share (16 B interleave).
  const auto& per = r.power.per_channel;
  ASSERT_EQ(per.size(), 8u);
  for (const auto& ch : per) {
    EXPECT_NEAR(ch.total_mw, per.front().total_mw, per.front().total_mw * 0.02);
  }
}

}  // namespace
}  // namespace mcm::core
