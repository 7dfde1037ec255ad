// The declarative workload scenario: `mcm.workload/v1` JSON describing a
// system shape plus N concurrent tenants - each a video recording level, an
// external trace, or a parameterized synthetic generator - carved into
// disjoint partitions of the global address space and contending for the
// same channels. A spec is pure data: spec + code revision determines the
// composed request stream bit-exactly, which is what lets the stream cache
// memoize compiled workloads and the verifier replay them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "multichannel/memory_system.hpp"
#include "obs/json.hpp"
#include "video/h264_levels.hpp"

namespace mcm::workload {

/// One concurrent session. `kind` selects which of the three field groups
/// applies; the shared fields place and pace the tenant.
struct TenantSpec {
  std::string name;
  std::string kind = "generator";  // "video" | "trace" | "generator"

  /// Bytes of the global address space reserved for this tenant. 0 = an
  /// equal share of whatever the explicitly-sized tenants leave over.
  std::uint64_t partition_bytes = 0;

  /// Spread this tenant's arrivals over [0, pace_ps] instead of issuing
  /// back-to-back at time zero. Pacing shapes the *merge order* of the
  /// composed stream (rate shaping between tenants); inside the engine all
  /// requests of a stage still arrive at the stage start.
  std::int64_t pace_ps = 0;

  // kind == "video": the paper's recording pipeline at this H.264 level.
  std::string level = "3.1";
  std::uint64_t max_requests = 0;  // 0 = the full frame's stream

  // kind == "trace": replay an external trace file. Relative paths are
  // resolved against the spec file's directory by load_workload().
  std::string path;
  std::string format = "auto";  // "auto" | "mcm-text" | "ramulator" | "binary"

  // kind == "generator": synthetic pattern (see workload/generators.hpp).
  std::string generator = "sequential";
  std::uint64_t window_bytes = 1 << 20;
  std::uint64_t bytes = 1 << 20;
  std::uint64_t stride_bytes = 4096;
  double write_fraction = 0.0;
  std::uint64_t seed = 1;

  friend bool operator==(const TenantSpec&, const TenantSpec&) = default;
};

struct WorkloadSpec {
  std::string name = "workload";

  // System shape (same vocabulary as verify's mcm.repro/v1).
  std::string device = "next_gen_mobile_ddr";
  std::uint32_t channels = 4;
  std::uint32_t freq_mhz = 400;
  std::uint32_t interleave_bytes = 16;

  /// Heterogeneous channel clusters: one device-class name per channel
  /// ("mobile_ddr", "fast_edram", "slow_pcm"). Empty = homogeneous system.
  /// `vault_group` >= 2 bundles that many consecutive channels onto one
  /// shared-TSV stacked interface.
  std::vector<std::string> channel_classes;
  std::uint32_t vault_group = 0;

  int frames = 1;
  std::int64_t period_ps = 33'333'333'333;  // 30 fps frame period

  std::vector<TenantSpec> tenants;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;

  /// Production system configuration. Throws std::invalid_argument on an
  /// unknown device name.
  [[nodiscard]] multichannel::SystemConfig system_config() const;

  /// Stream-cache key: a compact stamp of every field the compiled request
  /// stream depends on.
  [[nodiscard]] std::string cache_key() const;
};

/// `mcm.workload/v1` (de)serialization.
[[nodiscard]] obs::JsonValue workload_to_json(const WorkloadSpec& s);
[[nodiscard]] std::optional<WorkloadSpec> workload_from_json(
    const obs::JsonValue& doc, std::string* error = nullptr);

bool save_workload(const WorkloadSpec& s, const std::string& path);

/// Load a spec file; tenant trace paths are resolved relative to the spec
/// file's directory so committed scenarios stay relocatable.
[[nodiscard]] std::optional<WorkloadSpec> load_workload(
    const std::string& path, std::string* error = nullptr);

}  // namespace mcm::workload
