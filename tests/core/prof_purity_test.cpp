// Profiling purity: turning the self-profiler on must not change a single
// byte of the simulation's exported results. The profiler only ever reads
// clocks and writes its own thread-local spools, so any divergence here
// means instrumentation leaked into simulation state.
#include <gtest/gtest.h>

#include <string>

#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "core/result_export.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace mcm::core {
namespace {

std::string run_exported(bool profile) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.usecase.level = video::H264Level::k31;
  cfg.base.channels = 4;
  cfg.sim.profile = profile;
  const FrameSimResult result = FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
  obs::JsonValue root = obs::JsonValue::object();
  export_config(root["config"], cfg.base, cfg.usecase);
  export_result(root["point"], result);
  return root.dump_string();
}

class ProfPurityTest : public ::testing::Test {
 protected:
  void SetUp() override { (void)obs::prof::collect(/*reset=*/true); }
  void TearDown() override {
    // FrameSimOptions::profile latches the global enable; clear it so later
    // tests in this binary run unprofiled.
    obs::prof::set_enabled(false);
    (void)obs::prof::collect(/*reset=*/true);
  }
};

TEST_F(ProfPurityTest, ReportByteIdenticalSingleWorker) {
  const std::string off = run_exported(false);
  obs::prof::set_enabled(false);
  (void)obs::prof::collect(true);
  const std::string on = run_exported(true);
  EXPECT_EQ(off, on);

  const obs::prof::ProfileReport rep = obs::prof::collect(true);
  EXPECT_NE(rep.find("sim/run"), nullptr);
  EXPECT_NE(rep.find("engine/feed"), nullptr);
  EXPECT_NE(rep.find("engine/retired"), nullptr);
}

}  // namespace
}  // namespace mcm::core
