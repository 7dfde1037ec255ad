#include "core/frame_simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiments.hpp"

namespace mcm::core {
namespace {

multichannel::SystemConfig system_for(std::uint32_t channels, double freq = 400.0) {
  auto cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = channels;
  cfg.base.freq = Frequency{freq};
  return cfg.base;
}

video::UseCaseParams usecase_for(video::H264Level level) {
  video::UseCaseParams p;
  p.level = level;
  return p;
}

TEST(FrameSimOptions, ValidateNamesTheFailingField) {
  EXPECT_FALSE(FrameSimOptions{}.validate().has_value());
  FrameSimOptions zero;
  zero.frames = 0;
  ASSERT_TRUE(zero.validate().has_value());
  EXPECT_EQ(zero.validate()->field, "frames");
  FrameSimOptions gop;
  gop.gop_length = -1;
  ASSERT_TRUE(gop.validate().has_value());
  EXPECT_EQ(gop.validate()->field, "gop_length");
}

TEST(FrameSimulator, Serves720pFrameWithinPeriodOnTwoChannels) {
  const FrameSimulator sim;
  const auto r = sim.run(system_for(2), usecase_for(video::H264Level::k31));
  EXPECT_GT(r.access_time, Time::zero());
  EXPECT_LT(r.access_time, r.frame_period);
  EXPECT_TRUE(r.meets_realtime);
  EXPECT_NEAR(r.frame_period.ms(), 33.33, 0.01);
}

TEST(FrameSimulator, RejectsNonPositiveFramesAndNegativeGop) {
  // Checked in every build type: a zero frame count used to divide by zero
  // in Release, where the old assert compiled out.
  for (const int frames : {0, -2}) {
    FrameSimOptions opt;
    opt.frames = frames;
    EXPECT_THROW((void)FrameSimulator(opt).run(
                     system_for(1), usecase_for(video::H264Level::k31)),
                 std::invalid_argument)
        << "frames = " << frames;
  }
  FrameSimOptions opt;
  opt.gop_length = -1;
  EXPECT_THROW((void)FrameSimulator(opt).run(system_for(1),
                                             usecase_for(video::H264Level::k31)),
               std::invalid_argument);
}

TEST(FrameSimulator, TrafficVolumeMatchesTableI) {
  const FrameSimulator sim;
  const auto r = sim.run(system_for(2), usecase_for(video::H264Level::k31));
  const video::UseCaseModel model(usecase_for(video::H264Level::k31));
  EXPECT_NEAR(static_cast<double>(r.bytes_per_frame), model.total_bytes_per_frame(),
              model.total_bytes_per_frame() * 0.001);
  // Controller-side byte accounting agrees with the submitted volume.
  EXPECT_EQ(r.stats.bytes, r.bytes_per_frame);
}

TEST(FrameSimulator, StageResultsCoverAllStagesInOrder) {
  const FrameSimulator sim;
  const auto r = sim.run(system_for(2), usecase_for(video::H264Level::k31));
  ASSERT_EQ(r.stage_results.size(), 11u);
  Time prev = Time::zero();
  for (const auto& s : r.stage_results) {
    EXPECT_GE(s.completed, prev);  // stages complete in dependency order
    prev = s.completed;
  }
  EXPECT_EQ(r.stage_results.front().name, "Camera I/F");
}

TEST(FrameSimulator, PowerReportPopulated) {
  const FrameSimulator sim;
  const auto r = sim.run(system_for(2), usecase_for(video::H264Level::k31));
  EXPECT_GT(r.total_power_mw, 0.0);
  EXPECT_GT(r.dram_power_mw, 0.0);
  EXPECT_NEAR(r.interface_power_mw, 2 * 4.147, 0.1);
  EXPECT_NEAR(r.total_power_mw, r.dram_power_mw + r.interface_power_mw, 1e-9);
  // Energy breakdown is internally consistent.
  const auto& b = r.power.dram;
  EXPECT_GT(b.read_pj, 0.0);
  EXPECT_GT(b.write_pj, 0.0);
  EXPECT_GT(b.refresh_pj, 0.0);
  EXPECT_GT(b.powerdown_pj, 0.0);  // idle tail
}

TEST(FrameSimulator, HighRowHitRateForStreamingLoad) {
  const FrameSimulator sim;
  const auto r = sim.run(system_for(2), usecase_for(video::H264Level::k31));
  EXPECT_GT(r.stats.row_hit_rate(), 0.90);
}

TEST(FrameSimulator, MarginTightensRealtimeVerdict) {
  // A configuration that barely meets 33 ms must fail once the 15 %
  // processing margin applies. 1 channel at 333 MHz is the paper's
  // "marginal" point; at minimum the flags must be ordered.
  const FrameSimulator sim;
  const auto r = sim.run(system_for(1, 333.0), usecase_for(video::H264Level::k31));
  EXPECT_LE(r.meets_realtime_with_margin, r.meets_realtime);
}

TEST(FrameSimulator, MultiFrameRunKeepsPerFrameAccessTime) {
  FrameSimOptions opt;
  opt.frames = 3;
  const FrameSimulator sim3(opt);
  const FrameSimulator sim1;
  const auto r3 = sim3.run(system_for(2), usecase_for(video::H264Level::k31));
  const auto r1 = sim1.run(system_for(2), usecase_for(video::H264Level::k31));
  EXPECT_NEAR(static_cast<double>(r3.access_time.ps()),
              static_cast<double>(r1.access_time.ps()),
              static_cast<double>(r1.access_time.ps()) * 0.05);
  EXPECT_GE(r3.window, r3.frame_period * 3);
}

TEST(FrameSimulator, AchievedBandwidthBelowPeakAboveDemandShare) {
  const FrameSimulator sim;
  const auto cfg = system_for(2);
  const auto r = sim.run(cfg, usecase_for(video::H264Level::k31));
  const multichannel::MemorySystem sys(cfg);
  EXPECT_LT(r.achieved_bandwidth_bytes_per_s, sys.peak_bandwidth_bytes_per_s());
  EXPECT_GT(r.achieved_bandwidth_bytes_per_s,
            0.5 * sys.peak_bandwidth_bytes_per_s());
}

TEST(FrameSimulator, GopStructureLightensIntraFrames) {
  FrameSimOptions all_p;
  all_p.frames = 4;
  FrameSimOptions gop;
  gop.frames = 4;
  gop.gop_length = 2;  // frames 0 and 2 are I frames
  const auto rp = FrameSimulator(all_p).run(system_for(2),
                                            usecase_for(video::H264Level::k31));
  const auto ri = FrameSimulator(gop).run(system_for(2),
                                          usecase_for(video::H264Level::k31));
  // I frames drop the 6 x refs reference traffic: mean access time falls.
  EXPECT_LT(ri.access_time.seconds(), rp.access_time.seconds() * 0.85);
  // Frame 0 (intra) carries no reference traffic: fewer bytes than a P frame.
  EXPECT_LT(ri.bytes_per_frame, rp.bytes_per_frame);
}

TEST(FrameSimulator, GopLengthOneEqualsDefault) {
  FrameSimOptions one;
  one.gop_length = 1;
  const auto a = FrameSimulator(one).run(system_for(2),
                                         usecase_for(video::H264Level::k31));
  const auto b = FrameSimulator().run(system_for(2),
                                      usecase_for(video::H264Level::k31));
  EXPECT_EQ(a.access_time, b.access_time);
  EXPECT_EQ(a.bytes_per_frame, b.bytes_per_frame);
}

TEST(FrameSimulator, MotionWindowLoadRunsAndCostsMoreRowMisses) {
  FrameSimOptions seq;
  FrameSimOptions win;
  win.load.motion_window_encoder = true;
  const auto rs = FrameSimulator(seq).run(system_for(2),
                                          usecase_for(video::H264Level::k31));
  const auto rw = FrameSimulator(win).run(system_for(2),
                                          usecase_for(video::H264Level::k31));
  EXPECT_GT(rw.stats.row_misses + rw.stats.row_conflicts,
            rs.stats.row_misses + rs.stats.row_conflicts);
}

}  // namespace
}  // namespace mcm::core
