#include "multichannel/channel_clusters.hpp"

#include <gtest/gtest.h>

namespace mcm::multichannel {
namespace {

ClusterConfig make_config(std::uint32_t clusters, std::uint32_t channels_each) {
  ClusterConfig cfg;
  cfg.clusters = clusters;
  cfg.per_cluster.channels = channels_each;
  cfg.per_cluster.freq = Frequency{400.0};
  return cfg;
}

/// Push into the owning cluster with its cluster-local address.
void push(ChannelClusterSystem& sys, ctrl::Request r) {
  MemorySystem& owner = sys.cluster(sys.cluster_of(r.addr));
  r.addr = sys.local_addr(r.addr);
  owner.push(r);
}

/// Drain every cluster; the latest completion across them.
Time drain(ChannelClusterSystem& sys) {
  Time last = Time::zero();
  for (std::uint32_t i = 0; i < sys.cluster_count(); ++i) {
    last = max(last, sys.cluster(i).drain());
  }
  return last;
}

TEST(ChannelClusters, TotalsAcrossClusters) {
  const ChannelClusterSystem sys(make_config(2, 4));
  EXPECT_EQ(sys.cluster_count(), 2u);
  EXPECT_EQ(sys.total_channels(), 8u);
  EXPECT_EQ(sys.capacity_bytes(), 2ull * 4 * 64 * 1024 * 1024);
}

TEST(ChannelClusters, AddressSlicesRouteToClusters) {
  const ChannelClusterSystem sys(make_config(2, 2));
  const std::uint64_t slice = 2ull * 64 * 1024 * 1024;
  EXPECT_EQ(sys.cluster_of(0), 0u);
  EXPECT_EQ(sys.cluster_of(slice - 1), 0u);
  EXPECT_EQ(sys.cluster_of(slice), 1u);
  EXPECT_EQ(sys.cluster_of(2 * slice), 0u);  // wraps
}

TEST(ChannelClusters, IndependentClustersIsolateTraffic) {
  ChannelClusterSystem sys(make_config(2, 1));
  const std::uint64_t slice = 64ull * 1024 * 1024;
  // Load only cluster 0.
  for (int i = 0; i < 256; ++i) {
    push(sys, ctrl::Request{static_cast<std::uint64_t>(i) * 16, false, Time::zero(), 0});
  }
  (void)drain(sys);
  EXPECT_EQ(sys.cluster(0).stats().reads, 256u);
  EXPECT_EQ(sys.cluster(1).stats().reads, 0u);
  // Cluster 1 traffic lands in cluster 1.
  push(sys, ctrl::Request{slice + 0, false, Time::zero(), 0});
  (void)drain(sys);
  EXPECT_EQ(sys.cluster(1).stats().reads, 1u);
}

TEST(ChannelClusters, TwoClustersServeTwoStreamsInParallel) {
  // One 2-channel system vs two independent 1-channel clusters fed two
  // disjoint streams: clusters should be competitive (no cross interference).
  const std::uint64_t slice = 64ull * 1024 * 1024;
  ChannelClusterSystem clustered(make_config(2, 1));
  const int n = 2048;
  for (int i = 0; i < n; ++i) {
    const bool second = (i % 2) == 1;
    const std::uint64_t addr =
        (second ? slice : 0) + static_cast<std::uint64_t>(i / 2) * 16;
    push(clustered, ctrl::Request{addr, false, Time::zero(), 0});
  }
  const Time last = drain(clustered);
  // Both clusters saw half the stream.
  EXPECT_EQ(clustered.cluster(0).stats().reads, static_cast<std::uint64_t>(n) / 2);
  EXPECT_EQ(clustered.cluster(1).stats().reads, static_cast<std::uint64_t>(n) / 2);
  // Aggregate throughput is near one channel's peak x2 (16 B / 2 cycles each).
  const double seconds = last.seconds();
  const double bw = static_cast<double>(n) * 16 / seconds;
  EXPECT_GT(bw, 0.75 * 6.4e9);
}

TEST(ChannelClusters, FinalizeAndPowerAggregate) {
  ChannelClusterSystem sys(make_config(2, 2));
  push(sys, ctrl::Request{0, true, Time::zero(), 0});
  (void)drain(sys);
  const Time window = Time::from_ms(1.0);
  sys.finalize(window);
  const SystemPowerReport p = sys.power(window);
  EXPECT_EQ(p.per_channel.size(), 4u);
  EXPECT_GT(p.total_mw, 0.0);
  EXPECT_EQ(sys.stats().writes, 1u);
}

TEST(ChannelClusters, StatsKeepPerChannelRowsAndLatencyHistogram) {
  const std::uint64_t slice = 2ull * 64 * 1024 * 1024;
  ChannelClusterSystem sys(make_config(2, 2));
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t base = (i % 3 == 0) ? slice : 0;
    push(sys, ctrl::Request{base + static_cast<std::uint64_t>(i) * 16, i % 4 == 0,
                            Time::zero(), 0});
  }
  (void)drain(sys);
  const SystemStats s = sys.stats();
  EXPECT_EQ(s.accesses(), 300u);
  ASSERT_EQ(s.per_channel.size(), sys.total_channels());
  EXPECT_EQ(s.latency_hist_ns.summary().count(), s.accesses());
  // Rows follow cluster order, then channel order within a cluster.
  for (std::uint32_t i = 0; i < sys.cluster_count(); ++i) {
    for (std::uint32_t ch = 0; ch < 2; ++ch) {
      EXPECT_EQ(s.per_channel[i * 2 + ch].accesses(),
                sys.cluster(i).channel(ch).stats().accesses());
    }
  }
}

}  // namespace
}  // namespace mcm::multichannel
