// Golden reference memory-system model for differential verification.
//
// A deliberately simple, single-threaded, no-fast-path reimplementation of
// the production simulator's semantics: Table II channel interleaving, RBC/
// BRC/RCB/RBC-XOR address decode, FR-FCFS / FCFS scheduling over a plain
// vector queue, open/closed/timeout page policies, exact bank and cluster
// timing (tRCD/tRAS/tRC/tRRD/tFAW/tWR/tWTR/tRTP), data-bus turnaround,
// refresh with postpone debt, the power-down and self-refresh governors,
// and the paper's state-machine frame loop. It shares only configuration
// structs (DeviceSpec/DerivedTiming/ControllerConfig/SystemConfig), the
// Request type, and the TraceEvent record with production code — every
// scheduling and timing decision is recomputed here from first principles,
// with none of the production fast paths (row-hit streaming, slab queues,
// channel heaps, threshold feed, stream memoization).
//
// The model checks its own invariants as it runs (commands on clock edges,
// bank/cluster timing bounds respected, no data-bus overlap, no reordering
// past the starvation bound, monotone horizons) and throws std::logic_error
// on violation. `InjectedBug` deliberately breaks one timing rule so the
// differential harness can prove it catches and shrinks real divergences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {

/// One channel's observable outcome: controller counters, energy-ledger
/// activity totals, per-bank access counts, and the full command/span event
/// sequence in emission order.
struct RefChannelResult {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t bytes = 0;

  std::uint64_t n_act = 0;
  std::uint64_t n_rd = 0;
  std::uint64_t n_wr = 0;
  std::uint64_t n_ref = 0;
  std::uint64_t n_powerdown_entries = 0;
  std::uint64_t n_selfrefresh_entries = 0;
  std::int64_t t_active_standby_ps = 0;
  std::int64_t t_precharge_standby_ps = 0;
  std::int64_t t_active_powerdown_ps = 0;
  std::int64_t t_powerdown_ps = 0;
  std::int64_t t_selfrefresh_ps = 0;

  std::uint64_t route_count = 0;
  std::vector<std::uint64_t> bank_accesses;
  std::vector<obs::TraceEvent> events;
};

struct RefRunOutput {
  std::int64_t end_time_ps = 0;
  std::int64_t window_ps = 0;
  std::vector<std::int64_t> per_frame_access_ps;
  // First-frame stage bookkeeping (name, bytes, absolute completion).
  std::vector<std::string> stage_names;
  std::vector<std::uint64_t> stage_bytes;
  std::vector<std::int64_t> stage_completed_ps;
  std::vector<RefChannelResult> channels;
};

/// Events to reserve for a channel that `routed_requests` requests reach.
/// A request records at most four events of its own: its span plus PRE, ACT
/// and the column command (open page), or ACT, the column command, PRE and
/// the span (closed page). The slack covers a few refreshes, power-down
/// pairs and finalize's trailing precharges; a run with more of those grows
/// the vector past the reservation as usual. Both the golden model and the
/// differential harness's production spools size their event vectors with
/// it.
[[nodiscard]] constexpr std::size_t event_reservation(std::uint64_t routed_requests) {
  return static_cast<std::size_t>(4 * routed_requests + 64);
}

/// Run the whole scenario (state-machine frame loop + finalize) through the
/// reference model. Throws std::logic_error when a reference-internal
/// invariant is violated and std::invalid_argument on bad scenario names.
[[nodiscard]] RefRunOutput run_reference(const Scenario& scenario);

}  // namespace mcm::verify
