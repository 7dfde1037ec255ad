// mcm_explore: design-space exploration CLI. Expands an experiment spec
// (key-value file, or the paper's 120-point grid by default), runs it on the
// parallel orchestrator with optional analytic pre-screening, and reports
// per-level Pareto frontiers (average power vs per-frame access time) plus
// the Section V minimum-channel table. Results export as
// <name>.report.json (schema mcm.explore/v1; MCM_REPORT_DIR) and CSV.
//
//   mcm_explore [spec.conf] [options]
//     --threads N      worker threads (default: MCM_THREADS, else hw cores)
//     --screen         analytic pre-screen before simulation
//     --slack X        pre-screen prune threshold (default 1.25 x deadline)
//     --analytic       analytic estimator only (no simulation; fast)
//     --margin X       feasibility margin (default 0.15, the paper's)
//     --csv FILE       write the per-point CSV here
//     --name NAME      report name (default "mcm_explore")
//     --quiet          suppress the per-point table
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "exec/closed_loop.hpp"
#include "explore/explore_export.hpp"
#include "explore/orchestrator.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"

namespace {

using namespace mcm;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [spec.conf] [--threads N] [--screen] [--slack X] "
               "[--analytic] [--margin X] [--csv FILE] [--name NAME] "
               "[--quiet]\n",
               argv0);
}

struct Args {
  std::string spec_path;
  std::string csv_path;
  std::string name = "mcm_explore";
  explore::OrchestratorOptions orch;
  double margin = 0.15;
  bool quiet = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return false;
      const auto n = exec::parse_thread_count(v);
      if (!n) {
        std::fprintf(stderr, "--threads needs a positive integer, got '%s'\n",
                     v);
        usage(argv[0]);
        return false;
      }
      args.orch.threads = *n;
    } else if (arg == "--screen") {
      args.orch.prescreen = true;
    } else if (arg == "--slack") {
      const char* v = next("--slack");
      if (v == nullptr) return false;
      args.orch.prescreen_slack = std::strtod(v, nullptr);
    } else if (arg == "--analytic") {
      args.orch.engine = explore::Engine::kAnalytic;
    } else if (arg == "--margin") {
      const char* v = next("--margin");
      if (v == nullptr) return false;
      args.margin = std::strtod(v, nullptr);
    } else if (arg == "--csv") {
      const char* v = next("--csv");
      if (v == nullptr) return false;
      args.csv_path = v;
    } else if (arg == "--name") {
      const char* v = next("--name");
      if (v == nullptr) return false;
      args.name = v;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return false;
    } else {
      args.spec_path = arg;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;

  explore::ExperimentSpec spec;
  try {
    spec = args.spec_path.empty()
               ? explore::ExperimentSpec::paper_grid()
               : explore::ExperimentSpec::from_file(args.spec_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spec error: %s\n", e.what());
    return 1;
  }

  obs::MetricsRegistry metrics;
  args.orch.metrics = &metrics;
  std::printf("mcm_explore: %zu points, %u threads%s%s\n", spec.size(),
              exec::resolve_threads(args.orch.threads),
              args.orch.prescreen ? ", analytic pre-screen" : "",
              args.orch.engine == explore::Engine::kAnalytic
                  ? ", analytic engine"
                  : "");

  explore::ExploreRun run;
  try {
    run = explore::Orchestrator(args.orch).run(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exploration failed: %s\n", e.what());
    return 1;
  }

  if (!args.quiet) {
    std::printf("\n%-28s %10s %10s %10s %5s %7s\n", "point", "access[ms]",
                "rt[ms]", "power[mW]", "feas", "pareto");
    const auto frontiers = explore::frontiers_by_level(run, args.margin);
    std::vector<bool> on_frontier(run.results.size(), false);
    for (const auto& lf : frontiers) {
      for (const auto idx : lf.frontier) on_frontier[idx] = true;
    }
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      const auto& r = run.results[i];
      std::printf("%-28s %10.2f %10.1f %10.0f %5s %7s%s\n",
                  r.point.label().c_str(), r.access_time().ms(),
                  r.frame_period().ms(), r.total_power_mw(),
                  r.feasible(args.margin) ? "yes" : "no",
                  on_frontier[i] ? "*" : "",
                  r.pruned ? "  [pruned by pre-screen]" : "");
    }
  }

  // Section V: minimum channels per level (at 400 MHz when the grid has it,
  // else over the whole grid).
  const bool has_400 =
      std::find(spec.freq_mhz.begin(), spec.freq_mhz.end(), 400.0) !=
      spec.freq_mhz.end();
  const double table_freq = has_400 ? 400.0 : 0.0;
  std::printf("\nMinimum channels per level%s (margin %.0f %%):\n",
              has_400 ? " at 400 MHz" : "", 100.0 * args.margin);
  std::printf("%-8s %-12s %14s %14s\n", "level", "format", "min ch",
              "min ch+margin");
  for (const auto& e :
       explore::min_channels_per_level(run, table_freq, args.margin)) {
    const auto& lspec = video::level_spec(e.level);
    auto cell = [](const std::optional<std::uint32_t>& v) {
      return v ? std::to_string(*v) : std::string("none");
    };
    std::printf("%-8s %-12s %14s %14s\n", std::string(lspec.name).c_str(),
                std::string(lspec.format).c_str(),
                cell(e.min_channels).c_str(),
                cell(e.min_channels_with_margin).c_str());
  }

  std::printf("\n%zu points: %zu screened, %zu pruned, %zu simulated "
              "(%u threads, %.2f s)\n",
              run.stats.points, run.stats.screened, run.stats.pruned,
              run.stats.simulated, run.stats.threads, run.stats.wall_seconds);

  obs::RunReport report(args.name);
  explore::export_run(report, spec, run, args.margin);
  explore::export_run_stats(report, run.stats);
  const std::string path = report.write_default();
  if (!path.empty()) std::printf("[run report: %s]\n", path.c_str());

  if (!args.csv_path.empty()) {
    std::ofstream out(args.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.csv_path.c_str());
      return 1;
    }
    CsvWriter csv(out);
    explore::write_csv(csv, run, args.margin);
    std::printf("[csv: %s]\n", args.csv_path.c_str());
  }
  return 0;
}
