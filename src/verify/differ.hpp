// Differential runner: executes one Scenario through the production
// simulator (MemorySystem + the sequential feed)
// and through the golden reference model, reduces both to the same Outcome
// shape, and reports the first observable divergence. Compared surfaces:
// per-channel command/span event sequences (every issue edge, every
// completion time), controller counters, energy-ledger activity totals,
// per-bank access counts, interleaver route counts, frame bookkeeping
// (end time, per-frame access, first-frame stage completions), and the
// tallied DRAM energy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "verify/reference_model.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {

/// One channel's observable outcome, produced identically from either
/// simulator so comparison is field-by-field.
struct ChannelOutcome {
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
  double energy_total_pj = 0.0;
};

struct Outcome {
  std::int64_t end_time_ps = 0;
  std::int64_t window_ps = 0;
  std::vector<std::int64_t> per_frame_access_ps;
  std::vector<std::string> stage_names;
  std::vector<std::uint64_t> stage_bytes;
  std::vector<std::int64_t> stage_completed_ps;
  std::vector<ChannelOutcome> channels;
};

/// Run the scenario through the production simulator. Throws whatever the
/// production stack throws (bad config, engine assertion). Each channel's
/// spool is sized from its routed request count (event_reservation), and
/// the Outcome takes the spooled events over rather than copying them.
[[nodiscard]] Outcome run_production(const Scenario& s);

/// Reduce a reference run to the comparable Outcome shape (tallies energy
/// with the production EnergyModel so identical ledgers give identical pJ).
/// The Outcome owns what it reports: `ref`'s event and bank-access vectors
/// move into it. Pass a temporary or std::move to avoid copying them; an
/// lvalue argument is copied first and left as it was.
[[nodiscard]] Outcome reference_outcome(const Scenario& s, RefRunOutput ref);

/// First divergence between the two outcomes, or nullopt when they agree
/// exactly. The string pinpoints the channel/event index/field.
[[nodiscard]] std::optional<std::string> compare_outcomes(const Outcome& production,
                                                          const Outcome& reference);

/// Run both simulators and compare. A reference-internal invariant failure
/// (std::logic_error) is reported as a mismatch, not propagated.
[[nodiscard]] std::optional<std::string> diff_scenario(const Scenario& s);

/// Report-level export (deterministic field order) for the report-diff
/// check and for debugging dumps.
[[nodiscard]] obs::JsonValue outcome_to_json(const Outcome& o);

}  // namespace mcm::verify
