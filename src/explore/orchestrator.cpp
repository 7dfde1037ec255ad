#include "explore/orchestrator.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "exec/closed_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "video/usecase.hpp"

namespace mcm::explore {
namespace {

/// Per-point simulator options: the spec's base options with the
/// deterministic point seed applied and every shared sink (metrics, trace)
/// detached — worker tasks must not share mutable state.
core::FrameSimOptions point_sim_options(const ExperimentSpec& spec,
                                        const ExplorePoint& point) {
  core::FrameSimOptions opt = spec.base.sim;
  opt.load.seed = point.seed(spec.base_seed);
  opt.metrics = nullptr;
  opt.trace_path.clear();
  // Concurrent points must not each collect-and-reset the global profiler;
  // profile the whole exploration and collect once at the caller instead.
  opt.prof_path.clear();
  return opt;
}

}  // namespace

std::vector<std::size_t> largest_first(const ExperimentSpec& spec,
                                       const std::vector<ExplorePoint>& points,
                                       std::vector<std::size_t> indices) {
  std::vector<double> bytes(points.size(), 0.0);
  for (const std::size_t i : indices) {
    bytes[i] = video::UseCaseModel(points[i].usecase(spec.base))
                   .total_bytes_per_frame();
  }
  std::stable_sort(indices.begin(), indices.end(),
                   [&bytes](std::size_t a, std::size_t b) {
                     return bytes[a] > bytes[b];
                   });
  return indices;
}

ExploreRun Orchestrator::run(const ExperimentSpec& spec) const {
  return run(spec, spec.expand());
}

ExploreRun Orchestrator::run(const ExperimentSpec& spec,
                             std::vector<ExplorePoint> points) const {
  static const obs::prof::PhaseId kRun = obs::prof::phase_id("explore/run");
  static const obs::prof::PhaseId kQueueWait =
      obs::prof::phase_id("explore/queue_wait");
  static const obs::prof::PhaseId kAnalytic =
      obs::prof::phase_id("explore/point_analytic");
  static const obs::prof::PhaseId kExecute =
      obs::prof::phase_id("explore/point_execute");
  obs::prof::ScopedTimer run_span(kRun);
  const auto t0 = std::chrono::steady_clock::now();

  ExploreRun run;
  run.results.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    run.results[i].point = points[i];
  }
  run.stats.points = points.size();

  const unsigned threads = exec::resolve_threads(opt_.threads);
  run.stats.threads = threads;

  // Phase 1 (optional, and implied by the analytic engine): closed-form
  // estimate for every point, microseconds each.
  const bool want_screen = opt_.prescreen || opt_.engine == Engine::kAnalytic;
  if (want_screen) {
    // Queue wait = batch start to point start; timed only when profiling.
    const std::int64_t start = obs::prof::enabled() ? obs::prof::now_ns() : 0;
    exec::run_indexed(points.size(), threads,
                      [&spec, &run, start](std::size_t i) {
                        if (start != 0) {
                          obs::prof::tally(kQueueWait,
                                           obs::prof::now_ns() - start);
                        }
                        obs::prof::ScopedTimer span(kAnalytic);
                        ExploreResult& r = run.results[i];
                        r.analytic = core::analytic_estimate(
                            r.point.system(spec.base),
                            r.point.usecase(spec.base), spec.base.sim.load);
                        r.screened = true;
                      });
    run.stats.screened = points.size();
  }

  // Phase 2: transaction-level simulation of the surviving points.
  if (opt_.engine == Engine::kSimulator) {
    std::vector<std::size_t> todo;
    todo.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      ExploreResult& r = run.results[i];
      // The closed-form estimator models one homogeneous device (the base
      // spec), so a heterogeneous point is never pruned on its estimate: a
      // mixed placement can be feasible where the base-device screen says
      // otherwise. Heterogeneous points always get the full simulator.
      if (opt_.prescreen && r.point.classes.empty() &&
          r.analytic.access_time.seconds() >
              r.analytic.frame_period.seconds() * opt_.prescreen_slack) {
        r.pruned = true;
        ++run.stats.pruned;
        continue;
      }
      todo.push_back(i);
    }
    // expand() puts the most expensive levels last; a cursor over that
    // order would start them last and leave one running alone at the end.
    const std::vector<std::size_t> order =
        largest_first(spec, points, std::move(todo));
    run.stats.simulated = order.size();
    const std::int64_t start = obs::prof::enabled() ? obs::prof::now_ns() : 0;
    exec::run_indexed(
        order.size(), threads, [&spec, &run, &order, start](std::size_t k) {
          if (start != 0) {
            obs::prof::tally(kQueueWait, obs::prof::now_ns() - start);
          }
          obs::prof::ScopedTimer span(kExecute);
          ExploreResult& r = run.results[order[k]];
          const core::FrameSimulator sim(point_sim_options(spec, r.point));
          r.sim =
              sim.run(r.point.system(spec.base), r.point.usecase(spec.base));
          r.simulated = true;
        });
  }

  run.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (opt_.metrics != nullptr) {
    opt_.metrics->counter("explore/points").inc(run.stats.points);
    opt_.metrics->counter("explore/screened").inc(run.stats.screened);
    opt_.metrics->counter("explore/pruned").inc(run.stats.pruned);
    opt_.metrics->counter("explore/simulated").inc(run.stats.simulated);
  }
  MCM_LOG_INFO(
      "explore: %zu points, %zu screened, %zu pruned, %zu simulated "
      "(%u threads, %.2f s)",
      run.stats.points, run.stats.screened, run.stats.pruned,
      run.stats.simulated, run.stats.threads, run.stats.wall_seconds);
  return run;
}

}  // namespace mcm::explore
