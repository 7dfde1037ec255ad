// Determinism certification for heterogeneous channel clusters: a system
// mixing device classes (fast eDRAM, slow PCM, base mobile DDR, with and
// without vault grouping) must produce byte-identical results across
// MCM_SIM_THREADS in {1, 2, 8} x chunk sizes.
// Per-channel timing asymmetry stresses exactly what the sharded engine's
// stall bounds must not depend on: channels that run far ahead of (or
// behind) their siblings.
#include "core/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "dram/device_class.hpp"
#include "obs/trace.hpp"

namespace mcm::core {
namespace {

using load::CachedStage;
using load::CachedWorkload;

multichannel::SystemConfig hetero_system(
    std::vector<dram::DeviceClass> classes, std::uint32_t vault_group = 0) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = static_cast<std::uint32_t>(classes.size());
  cfg.base.controller.queue_depth = 16;
  cfg.base.channel_classes = std::move(classes);
  cfg.base.vault_group = vault_group;
  return cfg.base;
}

CachedWorkload make_workload(std::size_t count) {
  CachedWorkload wl;
  wl.burst_bytes = 16;
  // Two stages: a channel-rotating sequential sweep (every channel busy)
  // and a strided pattern that lands unevenly, so fast channels drain far
  // ahead of slow ones.
  CachedStage seq;
  seq.name = "seq";
  seq.source_id = 0;
  for (std::size_t i = 0; i < count; ++i) {
    seq.reqs.push_back(CachedStage::pack(i * 16, (i / 4) % 2 == 1));
  }
  CachedStage strided;
  strided.name = "strided";
  strided.source_id = 1;
  for (std::size_t i = 0; i < count / 2; ++i) {
    strided.reqs.push_back(CachedStage::pack(1 << 20 | (i * 2048), i % 3 == 0));
  }
  wl.total_requests = seq.reqs.size() + strided.reqs.size();
  wl.stages.push_back(std::move(seq));
  wl.stages.push_back(std::move(strided));
  return wl;
}

struct RunResult {
  ShardedRunOutput out;
  multichannel::SystemStats stats;
  std::string trace;
};

RunResult run_once(const multichannel::SystemConfig& config,
                   const std::vector<const CachedWorkload*>& frames,
                   Time period, unsigned threads, unsigned chunk) {
  multichannel::MemorySystem sys(config);
  std::vector<obs::TraceSpool> spools(sys.channel_count());
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    sys.attach_trace(&spools[c], c);
  }
  RunResult r;
  r.out = run_sharded_frames(sys, frames, period, threads, chunk);
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
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.out.end_time.ps(), b.out.end_time.ps());
  EXPECT_EQ(a.out.access_accum.ps(), b.out.access_accum.ps());
  ASSERT_EQ(a.out.per_frame_access.size(), b.out.per_frame_access.size());
  for (std::size_t i = 0; i < a.out.per_frame_access.size(); ++i) {
    EXPECT_EQ(a.out.per_frame_access[i].ps(), b.out.per_frame_access[i].ps());
  }
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.writes, b.stats.writes);
  EXPECT_EQ(a.stats.row_hits, b.stats.row_hits);
  EXPECT_EQ(a.stats.row_conflicts, b.stats.row_conflicts);
  EXPECT_EQ(a.stats.activates, b.stats.activates);
  EXPECT_EQ(a.stats.refreshes, b.stats.refreshes);
  EXPECT_EQ(a.stats.latency_ns.count(), b.stats.latency_ns.count());
  EXPECT_EQ(a.stats.latency_ns.mean(), b.stats.latency_ns.mean());
  EXPECT_EQ(a.trace, b.trace) << "merged trace must be byte-identical";
}

/// Reference = T1, chunk=1; every (threads, chunk) combination must match it
/// byte for byte.
void expect_hetero_invariant(const multichannel::SystemConfig& config) {
  const CachedWorkload wl = make_workload(600);
  const std::vector<const CachedWorkload*> frames{&wl, &wl};
  const Time period = Time::from_ms(2.0);

  const RunResult ref = run_once(config, frames, period, 1, 1);
  EXPECT_GT(ref.stats.reads + ref.stats.writes, 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned chunk : {1u, 7u, 64u, 100000u}) {
      expect_identical(ref, run_once(config, frames, period, threads, chunk),
                       "T=" + std::to_string(threads) +
                           " chunk=" + std::to_string(chunk));
    }
  }
}

TEST(HeteroDeterminism, MixedClassesAcrossThreadsAndChunks) {
  expect_hetero_invariant(hetero_system({
      dram::DeviceClass::kFastEdram,
      dram::DeviceClass::kSlowPcm,
      dram::DeviceClass::kMobileDdr,
      dram::DeviceClass::kFastEdram,
  }));
}

TEST(HeteroDeterminism, VaultGroupedAcrossThreadsAndChunks) {
  expect_hetero_invariant(hetero_system(
      {
          dram::DeviceClass::kFastEdram,
          dram::DeviceClass::kFastEdram,
          dram::DeviceClass::kSlowPcm,
          dram::DeviceClass::kSlowPcm,
      },
      /*vault_group=*/2));
}

TEST(HeteroDeterminism, AllMobileDdrMatchesLegacyByteForByte) {
  // The kMobileDdr identity: binding the base class on every channel must
  // not change a single byte versus the class-free legacy config.
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = 4;
  const multichannel::SystemConfig legacy = cfg.base;
  multichannel::SystemConfig bound = cfg.base;
  bound.channel_classes.assign(4, dram::DeviceClass::kMobileDdr);

  const CachedWorkload wl = make_workload(400);
  const std::vector<const CachedWorkload*> frames{&wl};
  const Time period = Time::from_ms(2.0);
  expect_identical(run_once(legacy, frames, period, 4, 0),
                   run_once(bound, frames, period, 4, 0),
                   "all-mobile-ddr vs legacy");
}

}  // namespace
}  // namespace mcm::core
