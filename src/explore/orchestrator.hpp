// Parallel exploration orchestrator: expands an ExperimentSpec, optionally
// pre-screens every point with the closed-form analytic estimator
// (~microseconds/point) to prune clearly-infeasible configurations, then
// runs the surviving points through the transaction-level FrameSimulator on
// the work-stealing thread pool.
//
// Determinism contract: each point's RNG seed derives from its own grid
// coordinates (ExplorePoint::seed), results are merged back in expansion
// order, and per-point runs share no mutable state — so the result vector
// and every export derived from it are bit-identical for 1 thread and N
// threads. Wall-clock and thread-count live only in the RunStats side
// channel, never in the deterministic results.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analytic.hpp"
#include "core/frame_simulator.hpp"
#include "explore/spec.hpp"

namespace mcm::obs {
class MetricsRegistry;
}  // namespace mcm::obs

namespace mcm::explore {

/// Which engine evaluates the (unpruned) points.
enum class Engine : std::uint8_t {
  kSimulator,  // transaction-level FrameSimulator (the default)
  kAnalytic,   // closed-form estimator only (fast, +/-20 %)
};

struct OrchestratorOptions {
  /// Worker threads; 0 = exec::resolve_threads default (MCM_THREADS, else
  /// hardware_concurrency). At most one worker per point is started.
  unsigned threads = 0;

  Engine engine = Engine::kSimulator;

  /// Run the analytic estimator over every point first and skip full
  /// simulation for points whose analytic access time exceeds
  /// prescreen_slack x frame period — far enough past the deadline that the
  /// +/-20 % model error cannot rescue them. Pruned points keep their
  /// analytic measures and report as infeasible.
  bool prescreen = false;
  double prescreen_slack = 1.25;

  /// When set, the run publishes its counters here: explore/points,
  /// explore/screened, explore/pruned, explore/simulated.
  obs::MetricsRegistry* metrics = nullptr;
};

struct ExploreResult {
  ExplorePoint point;
  bool screened = false;   // analytic phase evaluated this point
  bool pruned = false;     // pre-screen skipped the full simulation
  bool simulated = false;  // `sim` holds a FrameSimulator result
  core::AnalyticResult analytic;  // valid when screened or Engine::kAnalytic
  core::FrameSimResult sim;       // valid when simulated

  /// Headline measures, from the simulator when available, the analytic
  /// model otherwise (pruned / analytic-engine points).
  [[nodiscard]] Time access_time() const {
    return simulated ? sim.access_time : analytic.access_time;
  }
  [[nodiscard]] Time frame_period() const {
    return simulated ? sim.frame_period : analytic.frame_period;
  }
  [[nodiscard]] double total_power_mw() const {
    return simulated ? sim.total_power_mw : analytic.total_power_mw;
  }
  /// Real-time feasibility with a data-processing margin (paper: 15 %).
  [[nodiscard]] bool feasible(double margin = 0.15) const {
    return access_time().seconds() <=
           frame_period().seconds() * (1.0 - margin);
  }
};

/// Non-deterministic run facts (timing, thread count, prune counts); kept apart
/// from `results` so exports can stay thread-count invariant.
struct RunStats {
  unsigned threads = 1;
  double wall_seconds = 0;
  std::size_t points = 0;
  std::size_t screened = 0;
  std::size_t pruned = 0;
  std::size_t simulated = 0;
};

struct ExploreRun {
  std::vector<ExploreResult> results;  // expansion order
  RunStats stats;
};

/// The order in which the simulation phase hands out `indices` (positions
/// in `points`): descending bytes per frame of each point's use case
/// (video::UseCaseModel::total_bytes_per_frame), ties in index order. The
/// bytes a frame moves track its simulation cost, so the most expensive
/// points start first instead of last.
[[nodiscard]] std::vector<std::size_t> largest_first(
    const ExperimentSpec& spec, const std::vector<ExplorePoint>& points,
    std::vector<std::size_t> indices);

class Orchestrator {
 public:
  explicit Orchestrator(OrchestratorOptions opt = {}) : opt_(opt) {}

  [[nodiscard]] const OrchestratorOptions& options() const { return opt_; }

  /// Expand and evaluate the spec. The first exception from a point (e.g. a
  /// config rejected by the simulator) stops the handout of further points
  /// and propagates to the caller once the running ones have finished.
  [[nodiscard]] ExploreRun run(const ExperimentSpec& spec) const;

  /// Evaluate an explicit point list (any subset/reordering of a grid —
  /// e.g. phase-2 re-simulation of an analytic frontier) against the spec's
  /// base config and seed. Results come back in `points` order.
  [[nodiscard]] ExploreRun run(const ExperimentSpec& spec,
                               std::vector<ExplorePoint> points) const;

 private:
  OrchestratorOptions opt_;
};

}  // namespace mcm::explore
