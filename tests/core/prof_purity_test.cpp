// Profiling purity: turning the self-profiler on must not change a single
// byte of the simulation's exported results. The profiler only ever reads
// clocks and writes its own thread-local spools, so any divergence here
// means instrumentation leaked into simulation state.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "core/result_export.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace mcm::core {
namespace {

ExperimentConfig small_point() {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.usecase.level = video::H264Level::k31;
  cfg.base.channels = 4;
  return cfg;
}

std::string run_exported(bool profile) {
  obs::prof::set_enabled(profile);
  const ExperimentConfig cfg = small_point();
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
    // The profiler switch is process-wide; clear it so later tests in this
    // binary run unprofiled.
    obs::prof::set_enabled(false);
    (void)obs::prof::collect(/*reset=*/true);
  }
};

TEST_F(ProfPurityTest, ReportByteIdenticalSingleWorker) {
  const std::string off = run_exported(false);
  (void)obs::prof::collect(true);
  const std::string on = run_exported(true);
  EXPECT_EQ(off, on);

  const obs::prof::ProfileReport rep = obs::prof::collect(true);
  EXPECT_NE(rep.find("sim/run"), nullptr);
  EXPECT_NE(rep.find("engine/feed"), nullptr);
  EXPECT_NE(rep.find("engine/retired"), nullptr);
}

TEST_F(ProfPurityTest, ProfPathWritesLoadableProfileWithSpans) {
  // prof_path is the one writer of mcm.prof/v1; `mcm_prof trace` builds the
  // Chrome trace from the spans embedded in it.
  obs::prof::set_enabled(true);
  ExperimentConfig cfg = small_point();
  cfg.sim.prof_path = ::testing::TempDir() + "prof_purity.prof.json";
  (void)FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);

  std::ifstream in(cfg.sim.prof_path);
  ASSERT_TRUE(in) << cfg.sim.prof_path;
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<obs::JsonValue> doc = obs::json_parse(text.str());
  ASSERT_TRUE(doc.has_value());
  obs::prof::ProfileReport rep;
  ASSERT_TRUE(obs::prof::profile_from_json(*doc, rep));
  EXPECT_NE(rep.find("sim/run"), nullptr);
  EXPECT_NE(rep.find("engine/feed"), nullptr);
  EXPECT_FALSE(rep.spans.empty());
}

}  // namespace
}  // namespace mcm::core
