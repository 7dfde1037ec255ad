#include "multichannel/channel_clusters.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcm::multichannel {

ChannelClusterSystem::ChannelClusterSystem(const ClusterConfig& cfg) {
  if (cfg.clusters == 0) throw std::invalid_argument("clusters must be > 0");
  if (!cfg.cluster_classes.empty() &&
      cfg.cluster_classes.size() != cfg.clusters) {
    throw std::invalid_argument(
        "cluster_classes must be empty or have one entry per cluster");
  }
  clusters_.reserve(cfg.clusters);
  for (std::uint32_t i = 0; i < cfg.clusters; ++i) {
    SystemConfig sys = cfg.per_cluster;
    if (!cfg.cluster_classes.empty()) {
      sys.channel_classes.assign(sys.channels, cfg.cluster_classes[i]);
    }
    clusters_.push_back(std::make_unique<MemorySystem>(sys));
  }
  // Equal contiguous slices. With heterogeneous clusters the smallest
  // cluster bounds the slice so every cluster-local address stays in range.
  slice_bytes_ = clusters_.front()->capacity_bytes();
  for (const auto& c : clusters_) {
    slice_bytes_ = std::min(slice_bytes_, c->capacity_bytes());
  }
}

std::uint32_t ChannelClusterSystem::total_channels() const {
  std::uint32_t n = 0;
  for (const auto& c : clusters_) n += c->channel_count();
  return n;
}

std::uint64_t ChannelClusterSystem::capacity_bytes() const {
  return slice_bytes_ * clusters_.size();
}

std::uint32_t ChannelClusterSystem::cluster_of(std::uint64_t global_addr) const {
  return static_cast<std::uint32_t>((global_addr / slice_bytes_) % clusters_.size());
}

void ChannelClusterSystem::finalize(Time end) {
  for (auto& c : clusters_) c->finalize(end);
}

SystemStats ChannelClusterSystem::stats() const {
  SystemStats s;
  for (const auto& c : clusters_) {
    for (std::uint32_t ch = 0; ch < c->channel_count(); ++ch) {
      s.add_channel(c->channel(ch));
    }
  }
  return s;
}

SystemPowerReport ChannelClusterSystem::power(Time window) const {
  SystemPowerReport r;
  for (const auto& c : clusters_) {
    const SystemPowerReport cr = c->power(window);
    r.dram += cr.dram;
    r.dram_mw += cr.dram_mw;
    r.interface_mw += cr.interface_mw;
    r.total_mw += cr.total_mw;
    r.per_channel.insert(r.per_channel.end(), cr.per_channel.begin(),
                         cr.per_channel.end());
  }
  return r;
}

}  // namespace mcm::multichannel
