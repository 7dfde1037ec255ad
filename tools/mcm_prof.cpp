// mcm_prof: inspect and compare engine self-profiles (obs/prof).
//
//   mcm_prof show <profile.json>
//       Pretty-print a profile: per-phase calls, wall/self time, p50/p95.
//   mcm_prof diff <old.json> <new.json> [--tolerance F] [--fail-on-regression]
//       Per-phase deltas between two profiles plus a regression verdict.
//   mcm_prof trace <profile.json> <out.json>
//       Convert the embedded spans to Chrome trace_events JSON
//       (chrome://tracing, ui.perfetto.dev).
//
// Every input is an mcm.prof/v1 document, as written by
// FrameSimOptions::prof_path.
#include <algorithm>
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

std::optional<ProfileReport> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "mcm_prof: cannot open '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string error;
  const auto doc = obs::json_parse(ss.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "mcm_prof: '%s': %s\n", path.c_str(), error.c_str());
    return std::nullopt;
  }
  const obs::JsonValue* schema = doc->find("schema");
  const std::string name = schema != nullptr ? schema->as_string() : "";
  if (name != "mcm.prof/v1") {
    std::fprintf(stderr, "mcm_prof: '%s': unrecognized schema '%s'\n",
                 path.c_str(), name.c_str());
    return std::nullopt;
  }
  ProfileReport report;
  if (!obs::prof::profile_from_json(*doc, report)) {
    std::fprintf(stderr, "mcm_prof: '%s': malformed mcm.prof/v1 document\n",
                 path.c_str());
    return std::nullopt;
  }
  return report;
}

/// A phase with no recorded time is a pure counter (prof::count): report
/// its calls, not ms.
bool is_counter_like(const ProfilePhase& p) { return p.wall_ns == 0; }

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

void show_profile(const ProfileReport& p) {
  std::vector<const ProfilePhase*> rows;
  rows.reserve(p.phases.size());
  for (const ProfilePhase& ph : p.phases) rows.push_back(&ph);
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
  if (!p.thread_labels.empty()) {
    std::printf("threads:");
    for (const auto& [tid, label] : p.thread_labels) {
      std::printf(" %u=%s", tid, label.c_str());
    }
    std::printf("\n");
  }
  if (p.dropped_spans > 0) {
    std::printf("dropped spans: %llu\n",
                static_cast<unsigned long long>(p.dropped_spans));
  }
}

/// Number of simulation runs accumulated into the profile (its sim/run call
/// count; 1 when the phase is absent).
double run_count(const ProfileReport& p) {
  const ProfilePhase* run = p.find("sim/run");
  return run != nullptr && run->calls > 0 ? static_cast<double>(run->calls)
                                          : 1.0;
}

/// Per-run wall time of the profile, ms: the sim/run phase normalized by its
/// call count (multiple iterations accumulate into one profile). Falls back
/// to the largest phase wall.
double per_run_wall_ms(const ProfileReport& p) {
  if (const ProfilePhase* run = p.find("sim/run");
      run != nullptr && run->calls > 0) {
    return ms(run->wall_ns) / static_cast<double>(run->calls);
  }
  std::int64_t best = 0;
  for (const ProfilePhase& ph : p.phases) {
    best = std::max(best, ph.wall_ns);
  }
  return ms(best);
}

int diff_profiles(const ProfileReport& a, const ProfileReport& b,
                  double tolerance, bool fail_on_regression) {
  struct Row {
    const ProfilePhase* oldp = nullptr;
    const ProfilePhase* newp = nullptr;
  };
  std::map<std::string, Row> rows;
  for (const ProfilePhase& ph : a.phases) rows[ph.name].oldp = &ph;
  for (const ProfilePhase& ph : b.phases) rows[ph.name].newp = &ph;

  // Normalize to per-run time so profiles with different iteration counts
  // compare fairly.
  const double runs_a = run_count(a);
  const double runs_b = run_count(b);

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

void usage() {
  std::fprintf(
      stderr,
      "usage: mcm_prof <command> [args]\n"
      "  show <profile.json>\n"
      "  diff <old.json> <new.json> [--tolerance F] [--fail-on-regression]\n"
      "  trace <profile.json> <out.json>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> positional;
  double tolerance = 0.20;
  bool fail_on_regression = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
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
    const auto p = load(positional[0]);
    if (!p) return 2;
    show_profile(*p);
    return 0;
  }

  if (cmd == "diff" && positional.size() == 2) {
    const auto a = load(positional[0]);
    const auto b = load(positional[1]);
    if (!a || !b) return 2;
    return diff_profiles(*a, *b, tolerance, fail_on_regression);
  }

  if (cmd == "trace" && positional.size() == 2) {
    const auto p = load(positional[0]);
    if (!p) return 2;
    if (p->spans.empty()) {
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
    p->write_chrome_trace(out);
    std::printf("wrote %zu spans to %s\n", p->spans.size(),
                positional[1].c_str());
    return 0;
  }

  usage();
  return 2;
}
