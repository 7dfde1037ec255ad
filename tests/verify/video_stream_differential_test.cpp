// Golden-model differential on real video streams: the paper's recording
// pipeline (Fig. 1), enumerated by the stream cache exactly as a
// FrameSimulator run would, replayed through the production engine and the
// golden reference model, across schedulers, page policies and channel
// counts. random_scenario draws synthetic patterns only, so this is the
// differential coverage of the raster-walk streams the figures run on. Each
// stage is cut to its first kRequestsPerStage requests so the reference
// model stays fast; two frames put an idle gap and a frame edge in the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "core/experiments.hpp"
#include "load/stream_cache.hpp"
#include "verify/differ.hpp"
#include "verify/scenario.hpp"
#include "video/surfaces.hpp"
#include "video/usecase.hpp"

namespace mcm::verify {
namespace {

constexpr std::size_t kRequestsPerStage = 30000;

struct Combo {
  const char* tag;
  const char* scheduler;
  const char* page_policy;
  std::uint32_t channels;
  video::H264Level level;
  std::uint32_t queue_depth = 16;
};

// Names each case by its tag; without this, GoogleTest prints the struct's
// raw bytes (pointers included) into the discovered test name.
void PrintTo(const Combo& c, std::ostream* os) { *os << c.tag; }

/// The use case's frame stream as the production run builds it (same
/// surface alignment and burst size as FrameSimulator), stage by stage.
Scenario video_scenario(const Combo& combo) {
  Scenario s;
  s.channels = combo.channels;
  s.scheduler = combo.scheduler;
  s.page_policy = combo.page_policy;
  s.queue_depth = combo.queue_depth;

  video::UseCaseParams usecase = core::ExperimentConfig::paper_defaults().usecase;
  usecase.level = combo.level;
  const video::UseCaseModel model(usecase);
  const std::uint64_t align = std::max<std::uint64_t>(
      64 * 1024, std::uint64_t{s.interleave_bytes} * s.channels);
  const video::SurfaceLayout layout(model, align);
  load::LoadOptions opt;
  opt.burst_bytes = s.system_config().device.org.bytes_per_burst();
  opt.chunk_bytes = std::max(opt.chunk_bytes, opt.burst_bytes);
  const auto wl = load::StreamCache::instance().get(model, layout, align, opt);
  s.period_ps = model.frame_period().ps();

  ScenarioFrame frame;
  for (const load::CachedStage& stage : wl->stages) {
    ScenarioStage st{.name = stage.name, .source = stage.source_id, .reqs = {}};
    for (auto it = stage.reqs.begin();
         it != stage.reqs.end() && st.reqs.size() < kRequestsPerStage; ++it) {
      st.reqs.push_back(*it);
    }
    frame.stages.push_back(std::move(st));
  }
  s.frames = {frame, frame};
  return s;
}

class VideoStreamDifferential : public ::testing::TestWithParam<Combo> {};

TEST_P(VideoStreamDifferential, ProductionMatchesGoldenModel) {
  const Scenario s = video_scenario(GetParam());
  ASSERT_GT(s.frames[0].stages.size(), 1u);
  const auto mismatch = diff_scenario(s);
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, VideoStreamDifferential,
    ::testing::Values(
        Combo{"frfcfs_open_4ch", "FR-FCFS", "open", 4, video::H264Level::k31},
        Combo{"fcfs_open_4ch", "FCFS", "open", 4, video::H264Level::k31},
        Combo{"frfcfs_closed_2ch", "FR-FCFS", "closed", 2, video::H264Level::k31},
        Combo{"frfcfs_timeout_8ch", "FR-FCFS", "timeout", 8, video::H264Level::k31},
        Combo{"fcfs_closed_1ch", "FCFS", "closed", 1, video::H264Level::k31},
        Combo{"frfcfs_open_8ch_l4", "FR-FCFS", "open", 8, video::H264Level::k40},
        // perfbench policy_sweep's depth-64 shapes: the no-hit pick, the
        // lazy hit bits under closed page, and FCFS streams.
        Combo{"frfcfs_closed_1ch_q64", "FR-FCFS", "closed", 1,
              video::H264Level::k31, 64},
        Combo{"fcfs_open_1ch_q64", "FCFS", "open", 1, video::H264Level::k31, 64}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return info.param.tag;
    });

}  // namespace
}  // namespace mcm::verify
