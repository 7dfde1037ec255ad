// Workload compiler + runner: turns an `mcm.workload/v1` spec into the
// engine's memoized packed-stream form and drives it through the same
// sequential feed as the video use case.
//
// Compilation: each tenant gets a disjoint partition of the global address
// space (explicit partition_bytes, or an equal share of the remainder),
// aligned like video surfaces to a whole interleave stripe; tenant sources
// are built inside their partition and merged by (arrival, tenant index)
// into ONE mixed stage per frame. Inside the engine all requests of a stage
// arrive at the stage start, so tenant pacing shapes the *merge order* (rate
// shaping between tenants), not engine arrival times.
//
// Compiled streams memoize through load::StreamCache::get_keyed with
// WorkloadSpec::cache_key(), so repeated runs of one spec re-enumerate
// nothing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/frame_simulator.hpp"
#include "load/stream_cache.hpp"
#include "obs/run_report.hpp"
#include "workload/spec.hpp"

namespace mcm::workload {

/// Where a tenant landed and how much traffic it contributes per frame.
struct TenantStats {
  std::string name;
  std::string kind;
  std::uint64_t partition_base = 0;
  std::uint64_t partition_bytes = 0;
  std::uint64_t requests = 0;  // per frame
  std::uint64_t bytes = 0;     // per frame
};

struct CompiledWorkload {
  std::shared_ptr<const load::CachedWorkload> frame;  // one mixed stage
  std::vector<TenantStats> tenants;
  std::uint32_t burst_bytes = 0;
  std::uint64_t total_requests = 0;  // per frame
};

/// Compile the spec's tenants into the packed per-frame stream. Throws
/// std::invalid_argument when partitions don't fit the system's capacity, a
/// trace tenant's file is unreadable (load::TraceError), or a tenant is
/// malformed.
[[nodiscard]] CompiledWorkload compile_workload(const WorkloadSpec& spec);

struct WorkloadRunResult {
  core::FrameSimResult sim;
  CompiledWorkload compiled;
};

/// Compile and simulate: `frames` repetitions of the composed stream with a
/// `period_ps` cadence, through the sequential feed.
[[nodiscard]] WorkloadRunResult run_workload(const WorkloadSpec& spec);

/// Enumerate the composed merged stream of one frame with its merge-order
/// arrivals - the `mcm_trace record` backend. The result round-trips through
/// every trace format (arrivals are non-decreasing by construction).
[[nodiscard]] std::vector<ctrl::Request> record_workload(const WorkloadSpec& spec);

/// Fill `report` with the standard result point (core::export_result) plus
/// the per-tenant placement/traffic breakdown under root()["workload"].
void export_workload_report(obs::RunReport& report, const WorkloadSpec& spec,
                            const WorkloadRunResult& run);

}  // namespace mcm::workload
