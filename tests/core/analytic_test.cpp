// Cross-validation: the closed-form estimator must track the
// transaction-level simulator across the paper's operating points.
#include "core/analytic.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "core/experiments.hpp"

namespace mcm::core {
namespace {

struct Point {
  double freq;
  std::uint32_t channels;
  video::H264Level level;
};

// Names each case by its values. Without this, GoogleTest prints the raw
// bytes of the struct, padding included, so the test names would change
// from one run to the next.
void PrintTo(const Point& p, std::ostream* os) {
  *os << "L" << video::level_spec(p.level).name << ' ' << p.freq << "MHz "
      << p.channels << "ch";
}

class AnalyticVsSim : public ::testing::TestWithParam<Point> {};

TEST_P(AnalyticVsSim, AccessTimeWithin20Percent) {
  const auto [freq, channels, level] = GetParam();
  auto cfg = ExperimentConfig::paper_defaults();
  cfg.base.freq = Frequency{freq};
  cfg.base.channels = channels;
  video::UseCaseParams uc = cfg.usecase;
  uc.level = level;

  const auto sim = FrameSimulator(cfg.sim).run(cfg.base, uc);
  const auto ana = analytic_estimate(cfg.base, uc, cfg.sim.load);

  const double sim_ms = sim.access_time.ms();
  const double ana_ms = ana.access_time.ms();
  EXPECT_NEAR(ana_ms, sim_ms, sim_ms * 0.20)
      << "sim " << sim_ms << " ms vs analytic " << ana_ms << " ms";
}

TEST_P(AnalyticVsSim, PowerWithin25Percent) {
  const auto [freq, channels, level] = GetParam();
  auto cfg = ExperimentConfig::paper_defaults();
  cfg.base.freq = Frequency{freq};
  cfg.base.channels = channels;
  video::UseCaseParams uc = cfg.usecase;
  uc.level = level;

  const auto sim = FrameSimulator(cfg.sim).run(cfg.base, uc);
  const auto ana = analytic_estimate(cfg.base, uc, cfg.sim.load);
  if (!sim.meets_realtime) GTEST_SKIP() << "config misses real time";
  EXPECT_NEAR(ana.total_power_mw, sim.total_power_mw, sim.total_power_mw * 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPoints, AnalyticVsSim,
    ::testing::Values(Point{400.0, 1, video::H264Level::k31},
                      Point{400.0, 2, video::H264Level::k31},
                      Point{200.0, 2, video::H264Level::k31},
                      Point{400.0, 4, video::H264Level::k40},
                      Point{533.0, 4, video::H264Level::k40},
                      Point{400.0, 2, video::H264Level::k32}));

TEST(Analytic, EfficiencyBetweenHalfAndOne) {
  auto cfg = ExperimentConfig::paper_defaults();
  const auto ana = analytic_estimate(cfg.base, cfg.usecase, cfg.sim.load);
  EXPECT_GT(ana.efficiency, 0.5);
  EXPECT_LE(ana.efficiency, 1.0);
  EXPECT_GT(ana.cycles.data, 0.0);
  EXPECT_GT(ana.cycles.turnaround, 0.0);
  EXPECT_GT(ana.cycles.refresh, 0.0);
}

TEST(Analytic, ScalesInverselyWithChannels) {
  auto cfg = ExperimentConfig::paper_defaults();
  video::UseCaseParams uc = cfg.usecase;
  auto at = [&](std::uint32_t ch) {
    auto sys = cfg.base;
    sys.channels = ch;
    return analytic_estimate(sys, uc, cfg.sim.load).access_time.seconds();
  };
  EXPECT_NEAR(at(1) / at(2), 2.0, 0.2);
  EXPECT_NEAR(at(2) / at(4), 2.0, 0.2);
}

TEST(Analytic, MicrosecondFast) {
  // The whole point of the estimator: screening sweeps at ~0 cost. 1000
  // evaluations must finish far faster than one simulation.
  auto cfg = ExperimentConfig::paper_defaults();
  double acc = 0;
  for (int i = 0; i < 1000; ++i) {
    acc += analytic_estimate(cfg.base, cfg.usecase, cfg.sim.load).efficiency;
  }
  EXPECT_GT(acc, 0.0);
}

}  // namespace
}  // namespace mcm::core
