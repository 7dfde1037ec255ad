#include "explore/orchestrator.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "exec/closed_loop.hpp"
#include "explore/explore_export.hpp"
#include "load/stream_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"

namespace mcm::explore {
namespace {

/// Small simulated grid: 720p30 only, two channel counts, two clocks.
ExperimentSpec small_grid() {
  ExperimentSpec spec;
  spec.levels = {video::H264Level::k31};
  spec.channels = {1, 2};
  spec.freq_mhz = {400.0, 533.0};
  return spec;
}

std::string exported_json(const ExperimentSpec& spec, const ExploreRun& run) {
  obs::RunReport report("determinism");
  export_run(report, spec, run);
  return report.root().dump_string();
}

TEST(Orchestrator, OneThreadAndManyThreadsAreByteIdentical) {
  const auto spec = small_grid();

  OrchestratorOptions serial;
  serial.threads = 1;
  const auto run1 = Orchestrator(serial).run(spec);

  OrchestratorOptions parallel;
  parallel.threads = 4;
  const auto run4 = Orchestrator(parallel).run(spec);

  ASSERT_EQ(run1.results.size(), 4u);
  ASSERT_EQ(run1.results.size(), run4.results.size());
  EXPECT_EQ(run1.stats.threads, 1u);
  EXPECT_EQ(run4.stats.threads, 4u);

  for (std::size_t i = 0; i < run1.results.size(); ++i) {
    const ExploreResult& a = run1.results[i];
    const ExploreResult& b = run4.results[i];
    EXPECT_EQ(a.point, b.point);
    EXPECT_TRUE(a.simulated);
    EXPECT_TRUE(b.simulated);
    // Bit-identical simulation results, not just "close".
    EXPECT_EQ(a.sim.access_time.ps(), b.sim.access_time.ps());
    EXPECT_EQ(a.sim.window.ps(), b.sim.window.ps());
    EXPECT_EQ(a.sim.total_power_mw, b.sim.total_power_mw);
    EXPECT_EQ(a.sim.dram_power_mw, b.sim.dram_power_mw);
    EXPECT_EQ(a.sim.stats.reads, b.sim.stats.reads);
    EXPECT_EQ(a.sim.stats.writes, b.sim.stats.writes);
    EXPECT_EQ(a.sim.stats.row_hits, b.sim.stats.row_hits);
    EXPECT_EQ(a.sim.stats.activates, b.sim.stats.activates);
  }

  // The full deterministic export (points, frontiers, min-channel table)
  // must serialize byte-for-byte identically.
  EXPECT_EQ(exported_json(spec, run1), exported_json(spec, run4));
}

TEST(Orchestrator, SweepWrappersMatchEngineOutput) {
  // core::sweep_frequency routes through the engine; 1-thread and auto
  // thread counts must agree element-wise (legacy output order: channels
  // outer, frequency inner).
  auto cfg = core::ExperimentConfig::paper_defaults();
  const auto serial = core::sweep_frequency(cfg, video::H264Level::k31, 1);
  ASSERT_EQ(serial.size(), 24u);
  EXPECT_EQ(serial[0].channels, 1u);
  EXPECT_EQ(serial[0].freq_mhz, 200.0);
  EXPECT_EQ(serial[1].freq_mhz, 266.0);
  EXPECT_EQ(serial[6].channels, 2u);
}

TEST(Orchestrator, AnalyticEngineSkipsSimulation) {
  OrchestratorOptions opt;
  opt.engine = Engine::kAnalytic;
  opt.threads = 2;
  const auto run = Orchestrator(opt).run(ExperimentSpec::paper_grid());
  ASSERT_EQ(run.results.size(), 120u);
  EXPECT_EQ(run.stats.screened, 120u);
  EXPECT_EQ(run.stats.simulated, 0u);
  for (const auto& r : run.results) {
    EXPECT_TRUE(r.screened);
    EXPECT_FALSE(r.simulated);
    EXPECT_GT(r.access_time().ps(), 0);
    EXPECT_GT(r.total_power_mw(), 0.0);
  }
  // Higher channel counts are faster at fixed level/frequency.
  const auto& one_ch = run.results[0];   // L3.1 1ch 200MHz
  const auto& two_ch = run.results[6];   // L3.1 2ch 200MHz
  EXPECT_LT(two_ch.access_time(), one_ch.access_time());
}

TEST(Orchestrator, PrescreenPrunesClearlyInfeasiblePoints) {
  // 2160p30 on one channel at 200 MHz is hopeless (demand alone exceeds a
  // single channel's peak bandwidth); 720p30 at 400 MHz x 2ch is healthy.
  ExperimentSpec spec;
  spec.levels = {video::H264Level::k31, video::H264Level::k52};
  spec.channels = {2};
  spec.freq_mhz = {400.0};
  // Make the healthy point the only survivor: 2ch @400 MHz cannot carry
  // 2160p30 either.
  obs::MetricsRegistry metrics;
  OrchestratorOptions opt;
  opt.threads = 2;
  opt.prescreen = true;
  opt.prescreen_slack = 1.25;
  opt.metrics = &metrics;
  const auto run = Orchestrator(opt).run(spec);

  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_EQ(run.stats.screened, 2u);
  EXPECT_EQ(run.stats.pruned, 1u);
  EXPECT_EQ(run.stats.simulated, 1u);

  const auto& healthy = run.results[0];  // L3.1/2ch
  EXPECT_TRUE(healthy.simulated);
  EXPECT_FALSE(healthy.pruned);
  EXPECT_TRUE(healthy.feasible());

  const auto& pruned = run.results[1];  // L5.2/2ch
  EXPECT_TRUE(pruned.screened);
  EXPECT_TRUE(pruned.pruned);
  EXPECT_FALSE(pruned.simulated);
  EXPECT_FALSE(pruned.feasible());
  // Pruned points still report their analytic measures.
  EXPECT_GT(pruned.access_time().ms(), pruned.frame_period().ms());

  // Counters published to the registry.
  EXPECT_TRUE(metrics.contains("explore/pruned"));
  const auto snapshot = metrics.snapshot();
  for (const auto& m : snapshot) {
    if (m.name == "explore/pruned") EXPECT_EQ(m.value, 1.0);
    if (m.name == "explore/simulated") EXPECT_EQ(m.value, 1.0);
    if (m.name == "explore/points") EXPECT_EQ(m.value, 2.0);
  }
}

TEST(Orchestrator, PointListRunEvaluatesGivenPointsInOrder) {
  ExperimentSpec spec;  // base config only; axes unused by the list run
  std::vector<ExplorePoint> points;
  ExplorePoint a;
  a.level = video::H264Level::k31;
  a.channels = 2;
  a.freq_mhz = 533.0;
  ExplorePoint b = a;
  b.channels = 1;
  points = {a, b};

  OrchestratorOptions opt;
  opt.threads = 2;
  const auto run = Orchestrator(opt).run(spec, points);
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_EQ(run.results[0].point, a);
  EXPECT_EQ(run.results[1].point, b);
  EXPECT_TRUE(run.results[0].simulated);
  EXPECT_LT(run.results[0].sim.access_time, run.results[1].sim.access_time);
}

TEST(Orchestrator, PointsThatDifferOnlyInSeedShareOneStream) {
  // Every point of a one-format grid gets its own load seed, yet the
  // paper-default load model does not read it: all six points replay the
  // same cached stream.
  ExperimentSpec spec;
  spec.levels = {video::H264Level::k31};
  spec.channels = {1, 2};
  spec.freq_mhz = {333.0, 400.0, 533.0};
  std::set<std::uint64_t> seeds;
  for (const auto& p : spec.expand()) seeds.insert(p.seed(spec.base_seed));
  EXPECT_EQ(seeds.size(), 6u);

  auto& cache = load::StreamCache::instance();
  cache.clear();
  OrchestratorOptions opt;
  opt.threads = 2;
  const auto run = Orchestrator(opt).run(spec);
  ASSERT_EQ(run.results.size(), 6u);
  for (const auto& r : run.results) EXPECT_TRUE(r.simulated);
  EXPECT_EQ(cache.stats().stream_entries, 1u);
  cache.clear();
}

TEST(Orchestrator, SimulationStartsTheLargestPointFirst) {
  // expand() is level-outer in spec order: 3.1 (720p30) x {2, 4} ch, then
  // 5.2 (2160p30), then 4.0 (1080p30).
  ExperimentSpec spec;
  spec.levels = {video::H264Level::k31, video::H264Level::k52,
                 video::H264Level::k40};
  spec.channels = {2, 4};
  const auto points = spec.expand();
  std::vector<std::size_t> all(points.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto order = largest_first(spec, points, all);

  // Record the start order the way the orchestrator's simulation phase
  // hands points out: fn index k starts point order[k].
  std::vector<std::size_t> started;
  exec::run_indexed(order.size(), 1,
                    [&](std::size_t k) { started.push_back(order[k]); });
  EXPECT_EQ(started, (std::vector<std::size_t>{2, 3, 4, 5, 0, 1}));
  const auto bytes = [&](std::size_t i) {
    return video::UseCaseModel(points[i].usecase(spec.base))
        .total_bytes_per_frame();
  };
  for (std::size_t k = 1; k < started.size(); ++k) {
    EXPECT_GE(bytes(started[k - 1]), bytes(started[k])) << k;
  }
  // A subset (the points the pre-screen kept) keeps the same rule.
  EXPECT_EQ(largest_first(spec, points, {5, 0, 2, 1}),
            (std::vector<std::size_t>{2, 5, 0, 1}));
}

}  // namespace
}  // namespace mcm::explore
