// Heterogeneous-system observability and placement: per-channel timing
// asymmetry must be visible in the run report (the latent-assumption audit:
// no consumer may price every channel with one global timing table), the
// vault transform must follow its single shared definition, and the
// cluster-level placement knob must show the hot-surfaces-on-fast-channels
// win the paper's future-work section argues for.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/frame_simulator.hpp"
#include "core/result_export.hpp"
#include "dram/device_class.hpp"
#include "multichannel/channel_clusters.hpp"
#include "multichannel/memory_system.hpp"

namespace mcm::multichannel {
namespace {

SystemConfig two_channel_hetero() {
  SystemConfig cfg;
  cfg.channels = 2;
  cfg.channel_classes = {dram::DeviceClass::kFastEdram,
                         dram::DeviceClass::kSlowPcm};
  return cfg;
}

/// Row-conflict-heavy pattern mirrored onto both channels: every burst
/// ping-pongs between two rows of one bank, so service time is dominated by
/// tRC — exactly where the classes differ. Returns the last completion.
Time drive_mirrored_conflicts(MemorySystem& sys, int count) {
  Time last = Time::zero();
  const std::uint64_t stripe = sys.config().interleave_bytes;
  const std::uint64_t row = 2048 * 4;  // next row, same bank stride (RBC)
  for (int i = 0; i < count; ++i) {
    for (std::uint32_t ch = 0; ch < 2; ++ch) {
      const std::uint64_t local = (i % 2 == 0) ? 0 : row * 8;
      // Global address that routes to channel `ch` with local offset.
      const std::uint64_t addr = (local / stripe) * stripe * 2 + ch * stripe;
      sys.push(ctrl::Request{addr, false, Time::zero(), 0});
      last = max(last, sys.drain());
    }
  }
  return last;
}

TEST(HeteroReport, ChannelsBindTheirOwnClassTables) {
  MemorySystem sys(two_channel_hetero());
  // The audit's contract: consumers read timing from the channel, and the
  // two channels genuinely differ.
  const auto& fast = sys.channel(0).controller();
  const auto& slow = sys.channel(1).controller();
  EXPECT_LT(fast.timing().trc, slow.timing().trc);
  EXPECT_LT(fast.device().org.capacity_bits, slow.device().org.capacity_bits);
  EXPECT_EQ(sys.capacity_bytes(), fast.device().org.capacity_bytes() +
                                      slow.device().org.capacity_bytes());
}

TEST(HeteroReport, DifferentTrcYieldsDifferentPerChannelP95) {
  MemorySystem sys(two_channel_hetero());
  sys.finalize(drive_mirrored_conflicts(sys, 400));

  const SystemStats st = sys.stats();
  ASSERT_EQ(st.per_channel.size(), 2u);
  // Identical request streams, so only the class timing can separate them.
  EXPECT_EQ(st.per_channel[0].accesses(), st.per_channel[1].accesses());
  const double p95_fast = st.per_channel[0].latency_hist_ns.percentile(0.95);
  const double p95_slow = st.per_channel[1].latency_hist_ns.percentile(0.95);
  EXPECT_LT(p95_fast, p95_slow);

  // And the run report carries the asymmetry: per-channel p95 fields in the
  // exported JSON must differ (the regression the audit guards against is a
  // report that prices every channel identically).
  core::FrameSimResult r;
  r.stats = st;
  obs::JsonValue point = obs::JsonValue::object();
  core::export_result(point, r);
  const obs::JsonValue* per_channel = point.find("per_channel");
  ASSERT_NE(per_channel, nullptr);
  ASSERT_EQ(per_channel->size(), 2u);
  const double exported_fast =
      per_channel->at(0)->find("latency")->find("p95_ns")->as_double();
  const double exported_slow =
      per_channel->at(1)->find("latency")->find("p95_ns")->as_double();
  EXPECT_EQ(exported_fast, p95_fast);
  EXPECT_EQ(exported_slow, p95_slow);
  EXPECT_LT(exported_fast, exported_slow);
}

TEST(HeteroReport, ConfigExportNamesClassesOnlyWhenHeterogeneous) {
  obs::JsonValue hetero = obs::JsonValue::object();
  core::export_config(hetero, two_channel_hetero(), video::UseCaseParams{});
  const obs::JsonValue* classes = hetero.find("channel_classes");
  ASSERT_NE(classes, nullptr);
  ASSERT_EQ(classes->size(), 2u);
  EXPECT_EQ(classes->at(0)->as_string(), "fast_edram");
  EXPECT_EQ(classes->at(1)->as_string(), "slow_pcm");

  obs::JsonValue legacy = obs::JsonValue::object();
  core::export_config(legacy, SystemConfig{}, video::UseCaseParams{});
  EXPECT_EQ(legacy.find("channel_classes"), nullptr);
  EXPECT_EQ(legacy.find("vault_group"), nullptr);
}

TEST(HeteroReport, VaultTransformFollowsSingleDefinition) {
  SystemConfig cfg;
  cfg.channels = 4;
  cfg.vault_group = 4;
  cfg.interconnect.request_interval_cycles = 2;
  const channel::InterconnectSpec ic = cfg.channel_interconnect(0);
  EXPECT_EQ(ic.request_interval_cycles, 8);  // 1/G TDM share
  EXPECT_EQ(ic.latency.ps(),
            cfg.interconnect.latency.ps() + Time::from_ns(2.0).ps());
  // vault_group 0/1 are both "independent interfaces".
  cfg.vault_group = 1;
  EXPECT_EQ(cfg.channel_interconnect(0).request_interval_cycles, 2);
  EXPECT_EQ(cfg.channel_interconnect(0).latency.ps(),
            cfg.interconnect.latency.ps());
}

TEST(HeteroReport, ClassListLengthMustMatchChannels) {
  SystemConfig cfg;
  cfg.channels = 4;
  cfg.channel_classes = {dram::DeviceClass::kFastEdram};
  EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument);
}

TEST(HeteroReport, HotStreamOnFastClusterBeatsSwappedPlacement) {
  // Two clusters, one hot row-conflict stream and one cold stream. Placing
  // the hot stream's slice on the fast-class cluster must finish earlier
  // than the swapped placement — the hot-surfaces-to-fast-channels frontier
  // the explore sweep reports, reduced to its minimal form.
  const auto run = [](dram::DeviceClass first,
                      dram::DeviceClass second) -> Time {
    ClusterConfig cfg;
    cfg.per_cluster.channels = 2;
    cfg.clusters = 2;
    cfg.cluster_classes = {first, second};
    ChannelClusterSystem sys(cfg);
    const std::uint64_t slice = sys.capacity_bytes() / 2;
    const std::uint64_t row = 2048 * cfg.per_cluster.channels * 4;
    // Hot: row ping-pong in cluster 0's slice. Cold: a short sequential
    // stream in cluster 1's slice.
    // Each cluster is driven through its own push/drain.
    Time last = Time::zero();
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t hot = (i % 2 == 0) ? 0 : row * 8;
      sys.cluster(0).push(ctrl::Request{hot + (i % 2), false, Time::zero(), 0});
      if (i % 8 == 0) {
        sys.cluster(1).push(ctrl::Request{sys.local_addr(slice + i * 16ull), false,
                                          Time::zero(), 0});
      }
      last = max(last, max(sys.cluster(0).drain(), sys.cluster(1).drain()));
    }
    return last;
  };
  const Time hot_on_fast =
      run(dram::DeviceClass::kFastEdram, dram::DeviceClass::kSlowPcm);
  const Time hot_on_slow =
      run(dram::DeviceClass::kSlowPcm, dram::DeviceClass::kFastEdram);
  EXPECT_LT(hot_on_fast.ps(), hot_on_slow.ps());
}

}  // namespace
}  // namespace mcm::multichannel
