// Golden-model differential on hand-built stream shapes that random_scenario
// does not draw: a zero-length stage between two busy ones, full-queue
// stalls across stage and frame edges, refreshes landing mid-stage and at a
// stage edge, and a stream that keeps every request on one channel. Each
// must agree between the production feed and the reference model on every
// observable.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "load/stream_cache.hpp"
#include "verify/differ.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

/// A stage of `count` requests starting at `base`, advancing by `stride`
/// bytes, alternating 4 reads / 4 writes (the chunked read-modify-write
/// shape of the real stages).
ScenarioStage make_stage(const char* name, std::uint16_t source,
                         std::uint64_t base, std::uint64_t stride,
                         std::size_t count) {
  ScenarioStage s{.name = name, .source = source, .reqs = {}};
  for (std::size_t i = 0; i < count; ++i) {
    s.reqs.push_back(
        load::CachedStage::pack(base + i * stride, (i / 4) % 2 == 1));
  }
  return s;
}

Scenario make_scenario(std::uint32_t channels, std::uint32_t queue_depth,
                       Time period, std::vector<ScenarioStage> stages,
                       int frames = 1) {
  Scenario s;
  s.channels = channels;
  s.queue_depth = queue_depth;
  s.period_ps = period.ps();
  s.frames.assign(static_cast<std::size_t>(frames),
                  ScenarioFrame{.stages = std::move(stages)});
  return s;
}

void expect_agrees(const Scenario& s) {
  ASSERT_GT(s.total_requests(), 0u);
  const auto mismatch = diff_scenario(s);
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
}

TEST(EdgeShapeDifferential, ZeroLengthStageBetweenStages) {
  expect_agrees(make_scenario(4, 8, Time::from_us(100),
                              {make_stage("head", 0, 0, 16, 4000),
                               make_stage("empty", 1, 0, 16, 0),
                               make_stage("tail", 2, 1 << 16, 16, 4000)}));
}

TEST(EdgeShapeDifferential, FullQueueStallAcrossStageEdge) {
  // queue_depth=2 forces a full-queue threshold publication on nearly every
  // request; two frames put the stalls on both sides of a frame edge.
  expect_agrees(make_scenario(4, 2, Time::from_us(200),
                              {make_stage("stall", 0, 0, 16, 16000)},
                              /*frames=*/2));
}

TEST(EdgeShapeDifferential, RefreshAtStageEdge) {
  // Busy time far beyond tREFI (7.8 us), so refreshes land mid-stage, with
  // a frame period that puts the next frame's first stage right at the
  // refresh cadence.
  expect_agrees(make_scenario(2, 8, Time::from_us(250),
                              {make_stage("long", 0, 0, 16, 32000)},
                              /*frames=*/3));
}

TEST(EdgeShapeDifferential, SingleChannelSkewedStream) {
  // A stride of a whole stripe keeps every request of the first stage on
  // channel 0; the other channels only ever see thresholds and the drain.
  const std::uint32_t channels = 8;
  expect_agrees(make_scenario(
      channels, 8, Time::from_us(300),
      {make_stage("skew", 0, 0, 16ull * channels, 8000),
       make_stage("stripe", 1, 1 << 20, 16, 8000)}));
}

}  // namespace
}  // namespace mcm::verify
