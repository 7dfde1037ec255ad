// Independent channel clusters (paper Section V, future-work feature): a
// very large multi-channel memory divided into clusters of a reasonable
// number of channels, each cluster serving one use case / memory master
// independently. Each cluster is a complete MemorySystem with its own
// interleaver, driven through its own push()/drain(); the cluster system
// partitions the global address space in equal contiguous slices and
// aggregates stats and power.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "multichannel/memory_system.hpp"

namespace mcm::multichannel {

struct ClusterConfig {
  SystemConfig per_cluster;     // channels per cluster etc.
  std::uint32_t clusters = 2;

  /// Per-cluster device-class override: every channel of cluster i binds
  /// cluster_classes[i] (on top of any per-channel classes in
  /// `per_cluster`). Empty = all clusters identical. This is the placement
  /// knob for heterogeneous studies: put the hot use case's slice on a
  /// fast-class cluster and cold streams on a dense slow cluster.
  std::vector<dram::DeviceClass> cluster_classes;
};

class ChannelClusterSystem {
 public:
  explicit ChannelClusterSystem(const ClusterConfig& cfg);

  [[nodiscard]] std::uint32_t cluster_count() const {
    return static_cast<std::uint32_t>(clusters_.size());
  }
  [[nodiscard]] MemorySystem& cluster(std::uint32_t i) { return *clusters_[i]; }
  [[nodiscard]] const MemorySystem& cluster(std::uint32_t i) const {
    return *clusters_[i];
  }

  /// Total channels across clusters.
  [[nodiscard]] std::uint32_t total_channels() const;
  [[nodiscard]] std::uint64_t capacity_bytes() const;

  /// Which cluster owns a global address (contiguous equal slices).
  [[nodiscard]] std::uint32_t cluster_of(std::uint64_t global_addr) const;

  /// A global address's offset in its cluster's slice. Callers drive each
  /// cluster through its own push()/drain() with this address, so a
  /// cluster's results depend only on its own traffic (paper Section V).
  [[nodiscard]] std::uint64_t local_addr(std::uint64_t global_addr) const {
    return global_addr % slice_bytes_;
  }

  void finalize(Time end);

  [[nodiscard]] SystemStats stats() const;
  [[nodiscard]] SystemPowerReport power(Time window) const;

 private:
  std::vector<std::unique_ptr<MemorySystem>> clusters_;
  std::uint64_t slice_bytes_;
};

}  // namespace mcm::multichannel
