// mcm_prof: inspect and compare engine self-profiles (obs/prof).
//
//   mcm_prof show <profile.json> [--cell LABEL]
//       Pretty-print a profile: per-phase calls, wall/self time, p50/p95.
//   mcm_prof diff <old.json> <new.json> [--cell LABEL] [--tolerance F]
//                 [--fail-on-regression]
//       Per-phase deltas between two profiles plus a regression verdict.
//       Also accepts two BENCH_hotpath.json snapshots (requests/s deltas).
//   mcm_prof contention <profile.json> [--cell LABEL] [--baseline-cell LABEL]
//       Aggregate the sharded engine's per-worker phases (feed, drain,
//       barrier wait), its epoch attribution, and the data-oriented kernel
//       phases (ctrl/readiness_scan, ctrl/arbitration, ctrl/ledger_flush)
//       when the profile recorded them. With
//       --baseline-cell, report how much of the wall-clock gap between the
//       two cells the measured waits explain.
//   mcm_prof trace <profile.json> <out.json> [--cell LABEL]
//       Convert the embedded spans to Chrome trace_events JSON
//       (chrome://tracing, ui.perfetto.dev).
//
// Input schemas are auto-detected: mcm.prof/v1 (one profile, as written by
// FrameSimOptions::prof_path), mcm.prof_set/v1 (per-cell profiles, as
// written by `bench_hotpath --profile`), and mcm.bench_hotpath/v1 (diff
// only).
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace {

using namespace mcm;
using obs::prof::ProfilePhase;
using obs::prof::ProfileReport;

struct LoadedProfile {
  std::string label;  // empty for a bare mcm.prof/v1 file
  ProfileReport report;
  int iters = 0;             // prof_set cell metadata (0 when absent)
  double wall_ms_best = 0;   //
  double wall_ms_mean = 0;   //
};

struct LoadedFile {
  std::string path;
  std::string schema;
  std::vector<LoadedProfile> profiles;
  // mcm.bench_hotpath/v1: label -> (requests_per_s, wall_ms_best)
  std::vector<std::pair<std::string, std::pair<double, double>>> bench;
};

std::optional<obs::JsonValue> parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "mcm_prof: cannot open '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string error;
  auto doc = obs::json_parse(ss.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "mcm_prof: '%s': %s\n", path.c_str(), error.c_str());
  }
  return doc;
}

std::optional<LoadedFile> load(const std::string& path) {
  const auto doc = parse_file(path);
  if (!doc) return std::nullopt;
  LoadedFile f;
  f.path = path;
  const obs::JsonValue* schema = doc->find("schema");
  f.schema = schema != nullptr ? schema->as_string() : "";

  if (f.schema == "mcm.prof/v1") {
    LoadedProfile p;
    if (!obs::prof::profile_from_json(*doc, p.report)) {
      std::fprintf(stderr, "mcm_prof: '%s': malformed mcm.prof/v1 document\n",
                   path.c_str());
      return std::nullopt;
    }
    f.profiles.push_back(std::move(p));
    return f;
  }

  if (f.schema == "mcm.prof_set/v1") {
    const obs::JsonValue* cells = doc->find("cells");
    for (std::size_t i = 0; cells != nullptr && i < cells->size(); ++i) {
      const obs::JsonValue& cell = *cells->at(i);
      LoadedProfile p;
      if (const auto* v = cell.find("label")) p.label = v->as_string();
      if (const auto* v = cell.find("iters")) p.iters = static_cast<int>(v->as_int());
      if (const auto* v = cell.find("wall_ms_best")) p.wall_ms_best = v->as_double();
      if (const auto* v = cell.find("wall_ms_mean")) p.wall_ms_mean = v->as_double();
      const obs::JsonValue* prof = cell.find("profile");
      if (prof == nullptr || !obs::prof::profile_from_json(*prof, p.report)) {
        std::fprintf(stderr, "mcm_prof: '%s': cell '%s' has no valid profile\n",
                     path.c_str(), p.label.c_str());
        return std::nullopt;
      }
      f.profiles.push_back(std::move(p));
    }
    return f;
  }

  if (f.schema == "mcm.bench_hotpath/v1") {
    const obs::JsonValue* cells = doc->find("cells");
    for (std::size_t i = 0; cells != nullptr && i < cells->size(); ++i) {
      const obs::JsonValue& cell = *cells->at(i);
      const auto* label = cell.find("label");
      const auto* rps = cell.find("requests_per_s");
      const auto* wall = cell.find("wall_ms_best");
      if (label == nullptr) continue;
      f.bench.emplace_back(
          label->as_string(),
          std::make_pair(rps != nullptr ? rps->as_double() : 0.0,
                         wall != nullptr ? wall->as_double() : 0.0));
    }
    return f;
  }

  std::fprintf(stderr, "mcm_prof: '%s': unrecognized schema '%s'\n",
               path.c_str(), f.schema.c_str());
  return std::nullopt;
}

/// Select one profile by label: exact match first, then unique substring.
const LoadedProfile* select_cell(const LoadedFile& f, const std::string& label) {
  if (f.profiles.empty()) return nullptr;
  if (label.empty()) return &f.profiles.front();
  for (const LoadedProfile& p : f.profiles) {
    if (p.label == label) return &p;
  }
  const LoadedProfile* found = nullptr;
  for (const LoadedProfile& p : f.profiles) {
    if (p.label.find(label) == std::string::npos) continue;
    if (found != nullptr) {
      std::fprintf(stderr, "mcm_prof: --cell '%s' is ambiguous in '%s'\n",
                   label.c_str(), f.path.c_str());
      return nullptr;
    }
    found = &p;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "mcm_prof: no cell matching '%s' in '%s' (have:",
                 label.c_str(), f.path.c_str());
    for (const LoadedProfile& p : f.profiles) {
      std::fprintf(stderr, " %s", p.label.c_str());
    }
    std::fprintf(stderr, ")\n");
  }
  return found;
}

/// A phase with no recorded time is a pure counter (prof::count) or a value
/// histogram (prof::value): report its calls/percentiles, not ms.
bool is_counter_like(const ProfilePhase& p) { return p.wall_ns == 0; }

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

void show_profile(const LoadedProfile& p) {
  if (!p.label.empty()) {
    std::printf("cell %s  (%d iters, best %.2f ms, mean %.2f ms)\n",
                p.label.c_str(), p.iters, p.wall_ms_best, p.wall_ms_mean);
  }
  std::vector<const ProfilePhase*> rows;
  rows.reserve(p.report.phases.size());
  for (const ProfilePhase& ph : p.report.phases) rows.push_back(&ph);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    if (a->wall_ns != b->wall_ns) return a->wall_ns > b->wall_ns;
    return a->name < b->name;
  });

  std::printf("%-32s %12s %12s %12s %10s %10s %10s\n", "phase", "calls",
              "wall [ms]", "self [ms]", "p50 [us]", "p95 [us]", "max [ms]");
  for (const ProfilePhase* ph : rows) {
    if (is_counter_like(*ph)) continue;
    std::printf("%-32s %12llu %12.3f %12.3f %10.1f %10.1f %10.3f\n",
                ph->name.c_str(), static_cast<unsigned long long>(ph->calls),
                ms(ph->wall_ns), ms(ph->self_ns), ph->p50 / 1e3, ph->p95 / 1e3,
                ms(ph->max_ns));
  }
  bool header = false;
  for (const ProfilePhase* ph : rows) {
    if (!is_counter_like(*ph)) continue;
    if (!header) {
      std::printf("%-32s %12s %22s\n", "counter/value", "count", "p50 / p95");
      header = true;
    }
    std::printf("%-32s %12llu %10.1f / %-10.1f\n", ph->name.c_str(),
                static_cast<unsigned long long>(ph->calls), ph->p50, ph->p95);
  }
  if (!p.report.thread_labels.empty()) {
    std::printf("threads:");
    for (const auto& [tid, label] : p.report.thread_labels) {
      std::printf(" %u=%s", tid, label.c_str());
    }
    std::printf("\n");
  }
  if (p.report.dropped_spans > 0) {
    std::printf("dropped spans: %llu\n",
                static_cast<unsigned long long>(p.report.dropped_spans));
  }
}

/// Per-run wall time of the profile, ms: the sim/run phase normalized by its
/// call count (multiple iterations accumulate into one profile). Falls back
/// to the cell's measured mean, then to the largest phase wall.
double per_run_wall_ms(const LoadedProfile& p) {
  if (const ProfilePhase* run = p.report.find("sim/run");
      run != nullptr && run->calls > 0) {
    return ms(run->wall_ns) / static_cast<double>(run->calls);
  }
  if (p.wall_ms_mean > 0) return p.wall_ms_mean;
  std::int64_t best = 0;
  for (const ProfilePhase& ph : p.report.phases) {
    best = std::max(best, ph.wall_ns);
  }
  return ms(best);
}

int diff_profiles(const LoadedProfile& a, const LoadedProfile& b,
                  double tolerance, bool fail_on_regression) {
  if (!a.label.empty() || !b.label.empty()) {
    std::printf("cell %s\n", (!b.label.empty() ? b.label : a.label).c_str());
  }

  struct Row {
    const ProfilePhase* oldp = nullptr;
    const ProfilePhase* newp = nullptr;
  };
  std::map<std::string, Row> rows;
  for (const ProfilePhase& ph : a.report.phases) rows[ph.name].oldp = &ph;
  for (const ProfilePhase& ph : b.report.phases) rows[ph.name].newp = &ph;

  // Normalize to per-run time so profiles with different iteration counts
  // compare fairly.
  const double runs_a = [&] {
    const ProfilePhase* run = a.report.find("sim/run");
    return run != nullptr && run->calls > 0 ? static_cast<double>(run->calls) : 1.0;
  }();
  const double runs_b = [&] {
    const ProfilePhase* run = b.report.find("sim/run");
    return run != nullptr && run->calls > 0 ? static_cast<double>(run->calls) : 1.0;
  }();

  std::vector<std::pair<double, std::string>> printed;  // |delta| -> line
  for (const auto& [name, row] : rows) {
    const bool counter =
        (row.oldp != nullptr && is_counter_like(*row.oldp)) ||
        (row.newp != nullptr && is_counter_like(*row.newp));
    char line[256];
    double weight = 0;
    if (counter) {
      const double o = row.oldp != nullptr
                           ? static_cast<double>(row.oldp->calls) / runs_a
                           : 0.0;
      const double n = row.newp != nullptr
                           ? static_cast<double>(row.newp->calls) / runs_b
                           : 0.0;
      const double delta = o > 0 ? (n / o - 1.0) * 100.0 : 0.0;
      std::snprintf(line, sizeof line, "  %-32s %14.0f -> %14.0f  (%+.1f %%)",
                    name.c_str(), o, n, delta);
      weight = std::fabs(n - o) * 1e-6;  // counters rank below time deltas
    } else {
      const double o = row.oldp != nullptr ? ms(row.oldp->wall_ns) / runs_a : 0.0;
      const double n = row.newp != nullptr ? ms(row.newp->wall_ns) / runs_b : 0.0;
      const double delta = o > 0 ? (n / o - 1.0) * 100.0 : 0.0;
      if (row.oldp == nullptr) {
        std::snprintf(line, sizeof line,
                      "  %-32s %14s -> %12.3f ms (new phase)", name.c_str(),
                      "-", n);
      } else if (row.newp == nullptr) {
        std::snprintf(line, sizeof line,
                      "  %-32s %12.3f ms -> %14s (phase gone)", name.c_str(), o,
                      "-");
      } else {
        std::snprintf(line, sizeof line,
                      "  %-32s %12.3f ms -> %9.3f ms  (%+.1f %%)", name.c_str(),
                      o, n, delta);
      }
      weight = std::fabs(n - o);
    }
    printed.emplace_back(weight, line);
  }
  std::sort(printed.begin(), printed.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  std::printf("  %-32s %15s    %-12s\n", "phase", "old (per run)", "new");
  for (const auto& [w, line] : printed) std::printf("%s\n", line.c_str());

  const double wall_a = per_run_wall_ms(a);
  const double wall_b = per_run_wall_ms(b);
  const double ratio = wall_a > 0 ? wall_b / wall_a : 1.0;
  const bool regressed = ratio > 1.0 + tolerance;
  std::printf("  per-run wall: %.3f ms -> %.3f ms (%+.1f %%), tolerance %.0f %%\n",
              wall_a, wall_b, (ratio - 1.0) * 100.0, tolerance * 100.0);
  std::printf("  verdict: %s\n", regressed ? "REGRESSION" : "ok");
  return regressed && fail_on_regression ? 1 : 0;
}

int diff_bench(const LoadedFile& a, const LoadedFile& b, double tolerance,
               bool fail_on_regression) {
  std::printf("%-24s %16s %16s\n", "cell", "old req/s", "new req/s");
  bool regressed = false;
  for (const auto& [label, nums] : b.bench) {
    const auto [new_rps, new_wall] = nums;
    double old_rps = 0;
    for (const auto& [l, n] : a.bench) {
      if (l == label) old_rps = n.first;
    }
    if (old_rps <= 0) {
      std::printf("%-24s %16s %16.0f  (new cell)\n", label.c_str(), "-", new_rps);
      continue;
    }
    const double ratio = new_rps / old_rps;
    const bool bad = ratio < 1.0 - tolerance;
    regressed = regressed || bad;
    std::printf("%-24s %16.0f %16.0f  (%+.1f %%)%s\n", label.c_str(), old_rps,
                new_rps, (ratio - 1.0) * 100.0, bad ? " REGRESSION" : "");
  }
  for (const auto& [label, nums] : a.bench) {
    bool present = false;
    for (const auto& [l, n] : b.bench) present = present || l == label;
    if (!present) std::printf("%-24s missing from new snapshot\n", label.c_str());
  }
  std::printf("verdict: %s (tolerance %.0f %%)\n",
              regressed ? "REGRESSION" : "ok", tolerance * 100.0);
  return regressed && fail_on_regression ? 1 : 0;
}

struct WorkerWaits {
  std::int64_t feed_ns = 0, drain_ns = 0;
  std::int64_t barrier_ns = 0;
  std::uint64_t barrier_calls = 0;
  std::uint64_t retired = 0;
  // Epoch-batched engine phases (zero when the sequential feed ran).
  std::int64_t speculate_ns = 0, validate_ns = 0, snapshot_ns = 0;
  std::uint64_t publishes = 0;
  double spec_depth_p50 = 0, spec_depth_p95 = 0;
};

/// Parse "engine/w<N>/<kind>" phases into per-worker rows.
std::map<unsigned, WorkerWaits> worker_waits(const ProfileReport& rep) {
  std::map<unsigned, WorkerWaits> out;
  for (const ProfilePhase& ph : rep.phases) {
    const std::string_view name = ph.name;
    if (name.rfind("engine/w", 0) != 0) continue;
    const std::size_t slash = name.find('/', 8);
    if (slash == std::string_view::npos) continue;
    unsigned w = 0;
    bool numeric = slash > 8;
    for (std::size_t i = 8; i < slash; ++i) {
      if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) {
        numeric = false;
        break;
      }
      w = w * 10 + static_cast<unsigned>(name[i] - '0');
    }
    if (!numeric) continue;
    const std::string_view kind = name.substr(slash + 1);
    WorkerWaits& ww = out[w];
    if (kind == "feed") {
      ww.feed_ns = ph.wall_ns;
    } else if (kind == "drain") {
      ww.drain_ns = ph.wall_ns;
    } else if (kind == "barrier_wait") {
      ww.barrier_ns = ph.wall_ns;
      ww.barrier_calls = ph.calls;
    } else if (kind == "retired") {
      ww.retired = ph.calls;
    } else if (kind == "speculate") {
      ww.speculate_ns = ph.wall_ns;
    } else if (kind == "validate") {
      ww.validate_ns = ph.wall_ns;
    } else if (kind == "snapshot") {
      ww.snapshot_ns = ph.wall_ns;
    } else if (kind == "publishes") {
      ww.publishes = ph.calls;
    } else if (kind == "spec_depth") {
      ww.spec_depth_p50 = ph.p50;
      ww.spec_depth_p95 = ph.p95;
    }
  }
  return out;
}

int contention(const LoadedProfile& p, const LoadedProfile* baseline) {
  const auto waits = worker_waits(p.report);
  if (waits.empty()) {
    std::printf("no engine/w* phases in this profile (run with profiling "
                "enabled and sim_threads >= 1)\n");
    return 1;
  }
  if (!p.label.empty()) std::printf("cell %s\n", p.label.c_str());
  std::printf("%-8s %10s %10s %14s %12s\n", "worker", "feed [ms]",
              "drain [ms]", "barrier [ms]", "retired");
  std::int64_t total_wait_ns = 0;
  std::int64_t max_wait_ns = 0;  // critical-path wait: slowest worker
  for (const auto& [w, ww] : waits) {
    std::printf("w%-7u %10.2f %10.2f %9.2f/%-6llu %12llu\n", w,
                ms(ww.feed_ns), ms(ww.drain_ns), ms(ww.barrier_ns),
                static_cast<unsigned long long>(ww.barrier_calls),
                static_cast<unsigned long long>(ww.retired));
    const std::int64_t wait = ww.barrier_ns;
    total_wait_ns += wait;
    max_wait_ns = std::max(max_wait_ns, wait);
  }

  // Epoch-batched engine attribution (absent for sequential runs).
  const ProfilePhase* epochs = p.report.find("engine/epoch_publish");
  const ProfilePhase* rollback = p.report.find("engine/rollback");
  const ProfilePhase* proven = p.report.find("engine/proven_positions");
  const double runs = [&] {
    const ProfilePhase* run = p.report.find("sim/run");
    return run != nullptr && run->calls > 0 ? static_cast<double>(run->calls)
                                            : 1.0;
  }();
  if (epochs != nullptr && epochs->calls > 0) {
    std::printf("%-8s %12s %12s %12s %12s %18s\n", "worker", "spec [ms]",
                "valid [ms]", "snap [ms]", "publishes", "spec depth p50/p95");
    std::uint64_t total_publishes = 0;
    for (const auto& [w, ww] : waits) {
      std::printf("w%-7u %12.2f %12.2f %12.2f %12llu %10.0f / %-6.0f\n", w,
                  ms(ww.speculate_ns), ms(ww.validate_ns), ms(ww.snapshot_ns),
                  static_cast<unsigned long long>(ww.publishes),
                  ww.spec_depth_p50, ww.spec_depth_p95);
      total_publishes += ww.publishes;
    }
    std::printf("epochs: %.0f chunk(s)/run, %.1f publishes/chunk, "
                "%.0f proven position(s)/run, serial step %.2f ms/run\n",
                static_cast<double>(epochs->calls) / runs,
                static_cast<double>(total_publishes) /
                    static_cast<double>(epochs->calls),
                proven != nullptr
                    ? static_cast<double>(proven->calls) / runs
                    : 0.0,
                ms(epochs->wall_ns) / runs);
    if (rollback != nullptr && rollback->calls > 0) {
      std::printf("rollbacks: %.1f/run, serial replay %.2f ms/run\n",
                  static_cast<double>(rollback->calls) / runs,
                  ms(rollback->wall_ns) / runs);
    } else {
      std::printf("rollbacks: none\n");
    }
  }
  const ProfilePhase* fallback = p.report.find("engine/sequential_fallback");
  if (fallback != nullptr && fallback->calls > 0) {
    std::printf("sequential fallbacks: %.1f/run (the engine log names the "
                "reason)\n",
                static_cast<double>(fallback->calls) / runs);
  }

  // Data-oriented kernel attribution: the controllers tally their SoA
  // readiness scans, FR-FCFS arbitration picks and batched ledger flushes,
  // whichever engine feed ran.
  {
    const char* kernel_phases[] = {"ctrl/readiness_scan", "ctrl/arbitration",
                                   "ctrl/ledger_flush"};
    bool header = false;
    for (const char* name : kernel_phases) {
      const ProfilePhase* ph = p.report.find(name);
      if (ph == nullptr || ph->calls == 0) continue;
      if (!header) {
        std::printf("%-22s %14s %14s %14s\n", "kernel", "calls/run",
                    "wall [ms/run]", "per call [us]");
        header = true;
      }
      std::printf("%-22s %14.0f %14.3f %14.3f\n", name,
                  static_cast<double>(ph->calls) / runs,
                  ms(ph->wall_ns) / runs,
                  static_cast<double>(ph->wall_ns) / 1e3 /
                      static_cast<double>(ph->calls));
    }
  }

  const double wait_per_run_ms = ms(total_wait_ns) / runs;
  const double crit_wait_per_run_ms = ms(max_wait_ns) / runs;
  const double workers = static_cast<double>(waits.size());
  std::printf("total barrier wait (all workers): "
              "%.2f ms/run over %.0f run(s); slowest worker %.2f ms/run\n",
              wait_per_run_ms, runs, crit_wait_per_run_ms);

  if (baseline != nullptr) {
    // Workers wait concurrently, so the critical-path (slowest-worker) wait
    // is what shows up on the wall clock; summing across workers would
    // overstate the gap more the more workers the cell has, making cells
    // with different worker counts incomparable.
    const auto base_waits = worker_waits(baseline->report);
    const double base_ms = per_run_wall_ms(*baseline);
    const double cur_ms = per_run_wall_ms(p);
    const double gap = cur_ms - base_ms;
    std::printf("baseline cell %s (%zu worker(s)): %.2f ms/run vs %.2f ms/run "
                "(%.0f worker(s)) -> gap %.2f ms\n",
                baseline->label.c_str(), base_waits.size(), base_ms, cur_ms,
                workers, gap);
    if (gap > 0) {
      std::printf("slowest-worker wait explains %.0f %% of the gap "
                  "(all-worker sum: %.0f %%)\n",
                  crit_wait_per_run_ms / gap * 100.0,
                  wait_per_run_ms / gap * 100.0);
    } else {
      std::printf("no slowdown vs baseline; slowest-worker wait is "
                  "%.2f ms/run\n",
                  crit_wait_per_run_ms);
    }
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: mcm_prof <command> [args]\n"
      "  show <profile.json> [--cell LABEL]\n"
      "  diff <old.json> <new.json> [--cell LABEL] [--tolerance F]\n"
      "       [--fail-on-regression]\n"
      "  contention <profile.json> [--cell LABEL] [--baseline-cell LABEL]\n"
      "  trace <profile.json> <out.json> [--cell LABEL]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> positional;
  std::string cell;
  std::string baseline_cell;
  double tolerance = 0.20;
  bool fail_on_regression = false;
  if (const char* env = std::getenv("MCM_PERF_TOLERANCE")) {
    tolerance = std::strtod(env, nullptr);
  }
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cell") == 0 && i + 1 < argc) {
      cell = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline-cell") == 0 && i + 1 < argc) {
      baseline_cell = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--fail-on-regression") == 0) {
      fail_on_regression = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "mcm_prof: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      positional.emplace_back(argv[i]);
    }
  }

  if (cmd == "show" && positional.size() == 1) {
    const auto f = load(positional[0]);
    if (!f) return 2;
    if (f->profiles.empty()) {
      std::fprintf(stderr, "mcm_prof: '%s' holds no profiles\n",
                   f->path.c_str());
      return 2;
    }
    if (cell.empty() && f->profiles.size() > 1) {
      for (std::size_t i = 0; i < f->profiles.size(); ++i) {
        if (i > 0) std::printf("\n");
        show_profile(f->profiles[i]);
      }
    } else {
      const LoadedProfile* p = select_cell(*f, cell);
      if (p == nullptr) return 2;
      show_profile(*p);
    }
    return 0;
  }

  if (cmd == "diff" && positional.size() == 2) {
    const auto a = load(positional[0]);
    const auto b = load(positional[1]);
    if (!a || !b) return 2;
    if (!a->bench.empty() || !b->bench.empty()) {
      if (a->bench.empty() || b->bench.empty()) {
        std::fprintf(stderr,
                     "mcm_prof: cannot diff a bench snapshot against a "
                     "profile\n");
        return 2;
      }
      return diff_bench(*a, *b, tolerance, fail_on_regression);
    }
    // Profile vs profile: diff matching cells (all common labels, or the one
    // --cell selects).
    if (!cell.empty() || a->profiles.size() == 1) {
      const LoadedProfile* pa = select_cell(*a, cell);
      const LoadedProfile* pb = select_cell(*b, cell);
      if (pa == nullptr || pb == nullptr) return 2;
      return diff_profiles(*pa, *pb, tolerance, fail_on_regression);
    }
    int rc = 0;
    bool any = false;
    for (const LoadedProfile& pa : a->profiles) {
      const LoadedProfile* pb = nullptr;
      for (const LoadedProfile& q : b->profiles) {
        if (q.label == pa.label) pb = &q;
      }
      if (pb == nullptr) continue;
      if (any) std::printf("\n");
      any = true;
      rc |= diff_profiles(pa, *pb, tolerance, fail_on_regression);
    }
    if (!any) {
      std::fprintf(stderr, "mcm_prof: no common cells between the inputs\n");
      return 2;
    }
    return rc;
  }

  if (cmd == "contention" && positional.size() == 1) {
    const auto f = load(positional[0]);
    if (!f) return 2;
    const LoadedProfile* p = select_cell(*f, cell);
    if (p == nullptr) return 2;
    const LoadedProfile* base = nullptr;
    if (!baseline_cell.empty()) {
      base = select_cell(*f, baseline_cell);
      if (base == nullptr) return 2;
    }
    return contention(*p, base);
  }

  if (cmd == "trace" && positional.size() == 2) {
    const auto f = load(positional[0]);
    if (!f) return 2;
    const LoadedProfile* p = select_cell(*f, cell);
    if (p == nullptr) return 2;
    if (p->report.spans.empty()) {
      std::fprintf(stderr,
                   "mcm_prof: profile has no spans (written with "
                   "with_spans=false?)\n");
      return 2;
    }
    std::ofstream out(positional[1]);
    if (!out) {
      std::fprintf(stderr, "mcm_prof: cannot write '%s'\n",
                   positional[1].c_str());
      return 2;
    }
    p->report.write_chrome_trace(out);
    std::printf("wrote %zu spans to %s\n", p->report.spans.size(),
                positional[1].c_str());
    return 0;
  }

  usage();
  return 2;
}
