// Determinism contract of the channel-sharded engine: every statistic,
// timestamp, and trace byte is identical at any MCM_SIM_THREADS value,
// including 1. Synthetic workloads drive run_sharded_frames directly so the
// edge cases (zero-length stage, hard backpressure, refresh at an epoch
// edge, single-channel skew) stay fast at 8 workers even on small hosts;
// one real use-case point then byte-compares full exported reports.
#include "core/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "core/result_export.hpp"
#include "load/stream_cache.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace mcm::core {
namespace {

using load::CachedStage;
using load::CachedWorkload;

multichannel::SystemConfig make_system(std::uint32_t channels,
                                       std::uint32_t queue_depth = 8) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = channels;
  cfg.base.controller.queue_depth = queue_depth;
  return cfg.base;
}

/// A stage of `count` requests starting at `base`, advancing by `stride`
/// bytes, alternating 4 reads / 4 writes (the chunked read-modify-write
/// shape of the real stages).
CachedStage make_stage(const char* name, std::uint16_t source_id,
                       std::uint64_t base, std::uint64_t stride,
                       std::size_t count) {
  CachedStage s{.name = name,
                .source_id = count == 0 ? std::uint16_t{0xffff} : source_id,
                .reqs = load::PackedRuns(16)};
  for (std::size_t i = 0; i < count; ++i) {
    s.reqs.append(CachedStage::pack(base + i * stride, (i / 4) % 2 == 1));
  }
  return s;
}

CachedWorkload make_workload(std::vector<CachedStage> stages) {
  CachedWorkload wl;
  wl.burst_bytes = 16;
  for (auto& s : stages) {
    wl.total_requests += s.reqs.size();
    wl.stages.push_back(std::move(s));
  }
  return wl;
}

struct RunResult {
  ShardedRunOutput out;
  multichannel::SystemStats stats;
  std::string trace;
};

RunResult run_once(const multichannel::SystemConfig& config,
                   const std::vector<const CachedWorkload*>& frames,
                   Time period, unsigned threads) {
  multichannel::MemorySystem sys(config);
  std::vector<obs::TraceSpool> spools(sys.channel_count());
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    sys.attach_trace(&spools[c], c);
  }
  RunResult r;
  r.out = run_sharded_frames(sys, frames, period, threads);
  sys.finalize(max(r.out.end_time, period * static_cast<int>(frames.size())));
  std::vector<const obs::TraceSpool*> refs;
  for (const auto& s : spools) refs.push_back(&s);
  std::ostringstream os;
  obs::merge_trace_spools(refs, os);
  r.trace = os.str();
  r.stats = sys.stats();
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.out.end_time.ps(), b.out.end_time.ps());
  EXPECT_EQ(a.out.access_accum.ps(), b.out.access_accum.ps());
  EXPECT_EQ(a.out.bytes_first_frame, b.out.bytes_first_frame);
  ASSERT_EQ(a.out.per_frame_access.size(), b.out.per_frame_access.size());
  for (std::size_t i = 0; i < a.out.per_frame_access.size(); ++i) {
    EXPECT_EQ(a.out.per_frame_access[i].ps(), b.out.per_frame_access[i].ps());
  }
  ASSERT_EQ(a.out.first_frame_stages.size(), b.out.first_frame_stages.size());
  for (std::size_t i = 0; i < a.out.first_frame_stages.size(); ++i) {
    EXPECT_EQ(a.out.first_frame_stages[i], b.out.first_frame_stages[i]);
    EXPECT_EQ(a.out.first_frame_completed[i].ps(),
              b.out.first_frame_completed[i].ps());
  }

  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.writes, b.stats.writes);
  EXPECT_EQ(a.stats.bytes, b.stats.bytes);
  EXPECT_EQ(a.stats.row_hits, b.stats.row_hits);
  EXPECT_EQ(a.stats.row_misses, b.stats.row_misses);
  EXPECT_EQ(a.stats.row_conflicts, b.stats.row_conflicts);
  EXPECT_EQ(a.stats.activates, b.stats.activates);
  EXPECT_EQ(a.stats.precharges, b.stats.precharges);
  EXPECT_EQ(a.stats.refreshes, b.stats.refreshes);
  EXPECT_EQ(a.stats.latency_ns.count(), b.stats.latency_ns.count());
  EXPECT_EQ(a.stats.latency_ns.mean(), b.stats.latency_ns.mean());
  EXPECT_EQ(a.stats.latency_ns.variance(), b.stats.latency_ns.variance());

  EXPECT_EQ(a.trace, b.trace) << "merged trace must be byte-identical";
}

void expect_thread_invariant(const multichannel::SystemConfig& config,
                             const std::vector<const CachedWorkload*>& frames,
                             Time period) {
  const RunResult t1 = run_once(config, frames, period, 1);
  const RunResult t2 = run_once(config, frames, period, 2);
  const RunResult t8 = run_once(config, frames, period, 8);
  expect_identical(t1, t2, "T=1 vs T=2");
  expect_identical(t1, t8, "T=1 vs T=8");
  EXPECT_GT(t1.stats.reads + t1.stats.writes, 0u);
  EXPECT_FALSE(t1.trace.empty());
}

TEST(SimThreadsDeterminism, InterleavedStagesAcrossChannels) {
  // Sequential 16 B bursts rotate channels every request - the paper's
  // stripe pattern and the engine's worst case for cross-worker handoff.
  const auto wl = make_workload({
      make_stage("capture", 0, 0, 16, 20000),
      make_stage("process", 1, 1 << 16, 16, 20000),
      make_stage("encode", 2, 1 << 18, 16, 12000),
  });
  expect_thread_invariant(make_system(4), {&wl}, Time::from_us(500));
}

TEST(SimThreadsDeterminism, ZeroLengthStageBetweenStages) {
  const auto wl = make_workload({
      make_stage("head", 0, 0, 16, 4000),
      make_stage("empty", 1, 0, 16, 0),
      make_stage("tail", 2, 1 << 16, 16, 4000),
  });
  expect_thread_invariant(make_system(4), {&wl}, Time::from_us(100));
}

TEST(SimThreadsDeterminism, BackpressureStallSpansEpoch) {
  // queue_depth=2 forces a full-queue threshold publication on nearly every
  // position; two frames make the stalls straddle an epoch boundary.
  const auto wl = make_workload({
      make_stage("stall", 0, 0, 16, 16000),
  });
  const std::vector<const CachedWorkload*> frames{&wl, &wl};
  expect_thread_invariant(make_system(4, /*queue_depth=*/2), frames,
                          Time::from_us(200));
}

TEST(SimThreadsDeterminism, RefreshAtEpochEdge) {
  // Busy time far beyond tREFI (7.8 us) so refreshes land mid-stage, with a
  // frame period that puts the next epoch right at the refresh cadence.
  const auto wl = make_workload({
      make_stage("long", 0, 0, 16, 32000),
  });
  const std::vector<const CachedWorkload*> frames{&wl, &wl, &wl};
  expect_thread_invariant(make_system(2), frames, Time::from_us(250));
}

TEST(SimThreadsDeterminism, SingleChannelSkewedStream) {
  // Stride of a whole stripe keeps every request on channel 0: the other
  // workers only ever drain thresholds and wait at the barriers.
  const std::uint32_t channels = 8;
  const auto wl = make_workload({
      make_stage("skew", 0, 0, 16ull * channels, 8000),
      make_stage("stripe", 1, 1 << 20, 16, 8000),
  });
  expect_thread_invariant(make_system(channels), {&wl}, Time::from_us(300));
}

TEST(SimThreadsDeterminism, ResolveAndEnvDefaults) {
  unsetenv("MCM_SIM_THREADS");
  EXPECT_EQ(sim_threads_from_env(), 1u);
  EXPECT_EQ(resolve_sim_threads(0, 4), 1u);

  setenv("MCM_SIM_THREADS", "8", 1);
  EXPECT_EQ(sim_threads_from_env(), 8u);
  EXPECT_EQ(resolve_sim_threads(0, 4), 4u) << "clamped to channel count";
  unsetenv("MCM_SIM_THREADS");

  EXPECT_EQ(resolve_sim_threads(16, 8), 8u);
  EXPECT_EQ(resolve_sim_threads(2, 8), 2u);
  EXPECT_EQ(resolve_sim_threads(3, 1), 1u);
}

TEST(SimThreadsDeterminism, RealUseCaseReportByteIdentical) {
  // Full-system spot check: one 720p30 4-channel point exported at 1 and 2
  // workers must match byte for byte (slow on one core, still bounded).
  const auto run = [](unsigned threads) {
    ExperimentConfig cfg = ExperimentConfig::paper_defaults();
    cfg.usecase.level = video::H264Level::k31;
    cfg.sim.sim_threads = threads;
    const FrameSimResult result =
        FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
    obs::JsonValue root = obs::JsonValue::object();
    export_config(root["config"], cfg.base, cfg.usecase);
    export_result(root["point"], result);
    return root.dump_string();
  };
  EXPECT_EQ(run(1), run(2));
}

}  // namespace
}  // namespace mcm::core
