// Hot-path throughput microbenchmark: the repo's perf-trajectory baseline.
//
// Runs the full frame simulation for a small grid of (format, channels)
// cells at the paper's 400 MHz clock and reports, per cell, the simulated
// requests/second and the frame-sim wall clock (best of N repetitions).
// Results are written as BENCH_hotpath.json (see --out); the checked-in
// copy at the repo root is the baseline the CI perf-smoke job compares
// against:
//
//   bench_hotpath                         # measure, write BENCH_hotpath.json
//   bench_hotpath --out <path>            # measure, write elsewhere
//   bench_hotpath --check <baseline.json> # measure, fail on a >20 % drop
//   bench_hotpath --check <b> --tolerance 0.3
//   bench_hotpath --update [<baseline>]   # refresh the baseline in place,
//                                         # printing the per-cell deltas
//   bench_hotpath --no-fastpath           # measure with row-hit streaming off
//   bench_hotpath --profile               # also write a per-cell engine
//                                         # profile (mcm.prof_set/v1) next to
//                                         # the JSON output, for mcm_prof
//   bench_hotpath --simd off              # re-run every cell with MCM_SIMD=off
//                                         # as a "/scalar" twin and record the
//                                         # vector-vs-scalar ratio
//
// Every cell is stamped with the compile-time ISA (simd_compiled) and the
// runtime dispatch choice sampled during the run (simd_active), so a
// baseline JSON is self-describing about which kernels produced it.
//
// The tolerance can also come from MCM_PERF_TOLERANCE. Baseline numbers are
// machine-dependent: refresh them (docs/performance.md, "Updating the perf
// baseline") whenever the hardware class running the check changes.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "controller/soa_kernels.hpp"
#include "core/experiments.hpp"
#include "load/trace.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "video/h264_levels.hpp"
#include "workload/workload.hpp"

namespace {

using namespace mcm;

struct Cell {
  video::H264Level level;
  std::uint32_t channels;
  unsigned sim_threads = 1;  // channel-sharded workers (pinned per cell)
  // Workload-backed cell ("trace_replay" / "mixed4"): drives run_workload
  // instead of the video frame simulator. Controller knobs stay at the
  // production defaults (--no-fastpath does not apply to these cells).
  const char* workload = nullptr;
  // Sweep-eligible: the cell is run once per --workers value (default
  // 1,2,4), emitting per-worker twins with /simtN labels and a
  // simt_speedup column (requests/s relative to the 1-worker twin).
  bool sweep = false;
};

/// Deterministic 32 Ki-request replay trace (sequential / ping-pong / row
/// sweep phases), written once per process to a fixed temp path.
const std::string& bench_trace_path() {
  static const std::string path = [] {
    std::vector<ctrl::Request> reqs;
    reqs.reserve(32768);
    std::int64_t t = 0;
    for (std::uint64_t i = 0; i < 32768; ++i) {
      ctrl::Request r;
      switch ((i / 64) % 3) {
        case 0:  // sequential burst run
          r.addr = 0x100000 + (i % 64) * 16;
          break;
        case 1:  // two-row ping-pong
          r.addr = (i % 2 == 0) ? 0x200000 : 0x202000;
          break;
        default:  // row sweep
          r.addr = 0x300000 + (i % 64) * 2048;
          break;
      }
      r.is_write = i % 4 == 0;
      r.arrival = Time{t};
      t += 1000;
      reqs.push_back(r);
    }
    const std::string p = "/tmp/bench_hotpath_replay.trace";
    std::ofstream out(p);
    load::write_trace(out, reqs);
    return p;
  }();
  return path;
}

workload::WorkloadSpec make_workload_spec(const Cell& cell) {
  workload::WorkloadSpec s;
  s.channels = cell.channels;
  s.freq_mhz = 400;
  s.sim_threads = cell.sim_threads;
  workload::TenantSpec replay;
  replay.name = "replay";
  replay.kind = "trace";
  replay.path = bench_trace_path();
  if (std::strcmp(cell.workload, "trace_replay") == 0) {
    s.name = "trace_replay";
    s.tenants = {replay};
    return s;
  }
  // "mixed4": the committed mixed_tenants shape - one video level, one
  // replayed trace, two generators contending for the same channels.
  s.name = "mixed4";
  workload::TenantSpec camera;
  camera.name = "camera";
  camera.kind = "video";
  camera.level = "3.1";
  camera.max_requests = 20000;
  camera.pace_ps = 16'000'000'000;
  replay.pace_ps = 8'000'000'000;
  workload::TenantSpec chaser;
  chaser.name = "chaser";
  chaser.kind = "generator";
  chaser.generator = "pointer_chase";
  chaser.window_bytes = 2 << 20;
  chaser.bytes = 128 << 10;
  chaser.write_fraction = 0.3;
  chaser.seed = 7;
  chaser.pace_ps = 16'000'000'000;
  workload::TenantSpec scanner;
  scanner.name = "scanner";
  scanner.kind = "generator";
  scanner.generator = "sequential";
  scanner.window_bytes = 1 << 20;
  scanner.bytes = 256 << 10;
  scanner.write_fraction = 1.0;
  scanner.seed = 11;
  scanner.pace_ps = 16'000'000'000;
  s.tenants = {camera, replay, chaser, scanner};
  return s;
}

struct CellResult {
  std::string label;
  std::string level_name;
  std::uint32_t channels = 0;
  unsigned sim_threads = 1;
  std::uint64_t requests = 0;
  int iters = 0;
  double wall_ms_best = 0;
  double wall_ms_mean = 0;
  double requests_per_s = 0;
  double simt_speedup = 0;  // rps / 1-worker twin's rps; 0 = not in a sweep
  double simd_speedup = 0;  // vector twin's rps / this scalar twin's rps
  std::string simd_active;  // runtime dispatch sampled for this run
  std::string simd_mode;    // twin-pass tag; "" = default environment
  obs::JsonValue profile;  // mcm.prof/v1 doc when --profile, else null
};

/// Stamp the kernel provenance for the run about to happen. The
/// dispatch is sampled per controller construction, so this reflects the
/// MCM_SIMD environment in force for this cell.
void stamp_modes(CellResult& r) {
  r.simd_active = std::string(ctrl::kernels::to_string(ctrl::kernels::active_level()));
}

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(clock::now().time_since_epoch())
      .count();
}

CellResult run_workload_cell(const Cell& cell, double min_time_ms, int min_iters,
                             bool profile) {
  const workload::WorkloadSpec spec = make_workload_spec(cell);

  CellResult r;
  r.level_name = "-";
  r.channels = cell.channels;
  r.sim_threads = cell.sim_threads;
  {
    char label[64];
    std::snprintf(label, sizeof label, "%s/%uch", cell.workload, cell.channels);
    r.label = label;
  }
  stamp_modes(r);

  // Warm-up run: populates the stream cache (compilation is memoized, so
  // the timed loop measures the engine, like the video cells).
  {
    const auto res = workload::run_workload(spec);
    r.requests = res.sim.stats.accesses();
  }
  if (profile) (void)obs::prof::collect(/*reset=*/true);

  double total_ms = 0;
  double best_ms = 0;
  int iters = 0;
  while (iters < min_iters || total_ms < min_time_ms) {
    const double t0 = now_ms();
    const auto res = workload::run_workload(spec);
    const double dt = now_ms() - t0;
    if (res.sim.stats.accesses() != r.requests) {
      std::fprintf(stderr, "non-deterministic request count in cell %s\n",
                   r.label.c_str());
      std::exit(2);
    }
    total_ms += dt;
    best_ms = iters == 0 ? dt : std::min(best_ms, dt);
    ++iters;
  }
  r.iters = iters;
  r.wall_ms_best = best_ms;
  r.wall_ms_mean = total_ms / iters;
  r.requests_per_s = best_ms > 0 ? static_cast<double>(r.requests) / (best_ms / 1e3)
                                 : 0.0;
  if (profile) {
    r.profile = obs::prof::collect(/*reset=*/true).to_json(/*with_spans=*/true);
  }
  return r;
}

CellResult run_cell(const core::ExperimentConfig& base, const Cell& cell,
                    double min_time_ms, int min_iters, bool profile) {
  if (cell.workload != nullptr) {
    return run_workload_cell(cell, min_time_ms, min_iters, profile);
  }
  core::ExperimentConfig cfg = base;
  cfg.base.channels = cell.channels;
  cfg.base.freq = Frequency{400.0};
  cfg.usecase.level = cell.level;
  cfg.sim.sim_threads = cell.sim_threads;

  const core::FrameSimulator sim(cfg.sim);

  CellResult r;
  const auto& spec = video::level_spec(cell.level);
  r.level_name = spec.name;
  r.channels = cell.channels;
  r.sim_threads = cell.sim_threads;
  {
    char label[64];
    if (cell.sim_threads > 1) {
      std::snprintf(label, sizeof label, "%ux%u@%.0f/%uch/simt%u",
                    spec.resolution.width, spec.resolution.height, spec.fps,
                    cell.channels, cell.sim_threads);
    } else {
      std::snprintf(label, sizeof label, "%ux%u@%.0f/%uch",
                    spec.resolution.width, spec.resolution.height, spec.fps,
                    cell.channels);
    }
    r.label = label;
  }
  stamp_modes(r);

  // Warm-up run (page cache, allocator) that also yields the request count.
  {
    const auto res = sim.run(cfg.base, cfg.usecase);
    r.requests = res.stats.accesses();
  }
  // Discard the warm-up's profile so the sidecar covers timed iterations only.
  if (profile) (void)obs::prof::collect(/*reset=*/true);

  double total_ms = 0;
  double best_ms = 0;
  int iters = 0;
  while (iters < min_iters || total_ms < min_time_ms) {
    const double t0 = now_ms();
    const auto res = sim.run(cfg.base, cfg.usecase);
    const double dt = now_ms() - t0;
    if (res.stats.accesses() != r.requests) {
      std::fprintf(stderr, "non-deterministic request count in cell %s\n",
                   r.label.c_str());
      std::exit(2);
    }
    total_ms += dt;
    best_ms = iters == 0 ? dt : std::min(best_ms, dt);
    ++iters;
  }
  r.iters = iters;
  r.wall_ms_best = best_ms;
  r.wall_ms_mean = total_ms / iters;
  r.requests_per_s = best_ms > 0 ? static_cast<double>(r.requests) / (best_ms / 1e3)
                                 : 0.0;
  if (profile) {
    r.profile = obs::prof::collect(/*reset=*/true).to_json(/*with_spans=*/true);
  }
  return r;
}

/// "<stem>.json" -> "<stem>.prof.json" (plain append otherwise).
std::string prof_sidecar_path(const std::string& out_path) {
  const std::string suffix = ".json";
  if (out_path.size() > suffix.size() &&
      out_path.compare(out_path.size() - suffix.size(), suffix.size(), suffix) ==
          0) {
    return out_path.substr(0, out_path.size() - suffix.size()) + ".prof.json";
  }
  return out_path + ".prof.json";
}

/// Minimal scanner for this bench's own JSON output: pairs each "label"
/// string with the next "requests_per_s" number. Good enough for the
/// baseline check without a general JSON parser.
std::vector<std::pair<std::string, double>> read_baseline(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::pair<std::string, double>> cells;
  if (!in) return cells;
  std::string line;
  std::string label;
  while (std::getline(in, line)) {
    const auto find_value = [&](const char* key) -> std::string {
      const auto k = line.find(key);
      if (k == std::string::npos) return {};
      const auto colon = line.find(':', k);
      if (colon == std::string::npos) return {};
      return line.substr(colon + 1);
    };
    if (std::string v = find_value("\"label\""); !v.empty()) {
      const auto open = v.find('"');
      const auto close = v.find('"', open + 1);
      if (open != std::string::npos && close != std::string::npos) {
        label = v.substr(open + 1, close - open - 1);
      }
    } else if (std::string v = find_value("\"requests_per_s\""); !v.empty()) {
      if (!label.empty()) {
        cells.emplace_back(label, std::strtod(v.c_str(), nullptr));
        label.clear();
      }
    }
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  std::string check_path;
  bool update = false;
  double tolerance = 0.20;
  double min_time_ms = 500.0;
  int min_iters = 3;
  bool fastpath = true;
  bool profile = false;
  std::vector<unsigned> sweep_workers = {1, 2, 4};
  double assert_speedup = 0;  // 0 = no assertion
  bool simd_twin = false;     // --simd off: add a forced-scalar twin pass

  if (const char* env = std::getenv("MCM_PERF_TOLERANCE")) {
    tolerance = std::strtod(env, nullptr);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--min-time-ms") == 0 && i + 1 < argc) {
      min_time_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--min-iters") == 0 && i + 1 < argc) {
      min_iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--update") == 0) {
      update = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-fastpath") == 0) {
      fastpath = false;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      sweep_workers.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v <= 0) {
          std::fprintf(stderr, "--workers wants a comma list like 1,2,4\n");
          return 2;
        }
        sweep_workers.push_back(static_cast<unsigned>(v));
        p = *end == ',' ? end + 1 : end;
      }
      if (sweep_workers.empty()) {
        std::fprintf(stderr, "--workers wants a comma list like 1,2,4\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--assert-speedup") == 0 && i + 1 < argc) {
      assert_speedup = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--simd") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "off") != 0 && std::strcmp(mode, "scalar") != 0) {
        std::fprintf(stderr,
                     "--simd wants 'off' (run forced-scalar /scalar twins "
                     "next to the default pass)\n");
        return 2;
      }
      simd_twin = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  auto cfg = core::ExperimentConfig::paper_defaults();
  cfg.base.controller.stream_row_hits = fastpath;
  if (profile) obs::prof::set_enabled(true);

  // The paper's headline cell (720p30, 4 ch) plus a single-channel contrast
  // point and two heavier formats that stress queue pressure differently.
  // Sweep cells track the channel-sharded parallel path: the same workload
  // re-run at every --workers value in one process, so the per-worker twins
  // share the warm stream cache and the simt_speedup ratios are apples to
  // apples (on few-core runners the simtN twins mostly measure epoch
  // overhead; on wide machines, real speedup).
  const std::vector<Cell> base_cells = {
      {video::H264Level::k31, 1},
      {video::H264Level::k31, 4, 1, nullptr, /*sweep=*/true},
      {video::H264Level::k40, 4},
      {video::H264Level::k42, 4},
      {video::H264Level::k31, 8, 1, nullptr, /*sweep=*/true},
      // Workload-subsystem cells: external-trace replay and the 4-tenant
      // mixed scenario (video + trace + two generators), both through
      // run_workload's compile/merge/shard path.
      {video::H264Level::k31, 4, 1, "trace_replay"},
      {video::H264Level::k31, 4, 1, "mixed4"},
  };
  std::vector<Cell> cells;
  for (const auto& cell : base_cells) {
    if (!cell.sweep) {
      cells.push_back(cell);
      continue;
    }
    for (const unsigned w : sweep_workers) {
      Cell twin = cell;
      twin.sim_threads = w;
      cells.push_back(twin);
    }
  }

  std::printf("HOT-PATH THROUGHPUT (400 MHz, fast path %s)\n\n",
              fastpath ? "on" : "off");
  std::printf("%-22s %10s %6s %12s %12s %14s %8s\n", "cell", "requests",
              "iters", "best [ms]", "mean [ms]", "requests/s", "simt x");

  obs::JsonValue root = obs::JsonValue::object();
  root["schema"] = "mcm.bench_hotpath/v1";
  root["freq_mhz"] = 400.0;
  root["fastpath"] = fastpath;
  auto& arr = root["cells"];
  arr = obs::JsonValue::array();

  // Pass list: the default environment first, then (with --simd off) the
  // forced-scalar twin pass. MCM_SIMD is sampled at controller construction,
  // so flipping it between passes re-runs the same cells through the scalar
  // kernels; twins get a "/scalar" label suffix and a simd_speedup ratio
  // against their vector counterpart.
  struct Pass {
    const char* mode;    // MCM_SIMD value to force; nullptr = leave alone
    const char* suffix;  // label suffix for this pass's cells
  };
  std::vector<Pass> passes = {{nullptr, ""}};
  if (simd_twin) passes.push_back({"off", "/scalar"});

  std::vector<CellResult> results;
  for (const auto& pass : passes) {
    if (pass.mode != nullptr) setenv("MCM_SIMD", pass.mode, 1);
    for (const auto& cell : cells) {
    CellResult r = run_cell(cfg, cell, min_time_ms, min_iters, profile);
    r.simd_mode = pass.mode == nullptr ? "" : pass.mode;
    r.label += pass.suffix;
    if (cell.sweep) {
      // Speedup vs the 1-worker twin (sweeps list workers ascending, so the
      // base twin has already run; 0 when the sweep list omits worker 1).
      // Match within the same pass only: a scalar sweep twin compares to the
      // scalar 1-worker run, not the vector one.
      for (const auto& prev : results) {
        if (prev.sim_threads == 1 && prev.channels == r.channels &&
            prev.level_name == r.level_name && prev.simd_mode == r.simd_mode) {
          r.simt_speedup = prev.requests_per_s > 0
                               ? r.requests_per_s / prev.requests_per_s
                               : 0.0;
        }
      }
      if (r.sim_threads == 1) r.simt_speedup = 1.0;
    }
    if (pass.mode != nullptr) {
      // Vector-vs-scalar ratio against the default-pass cell of the same
      // label (minus the twin suffix).
      const std::string base_label =
          r.label.substr(0, r.label.size() - std::strlen(pass.suffix));
      for (const auto& prev : results) {
        if (prev.simd_mode.empty() && prev.label == base_label) {
          r.simd_speedup = r.requests_per_s > 0
                               ? prev.requests_per_s / r.requests_per_s
                               : 0.0;
        }
      }
    }
    if (r.simt_speedup > 0) {
      std::printf("%-22s %10llu %6d %12.2f %12.2f %14.0f %7.2fx\n",
                  r.label.c_str(), static_cast<unsigned long long>(r.requests),
                  r.iters, r.wall_ms_best, r.wall_ms_mean, r.requests_per_s,
                  r.simt_speedup);
    } else {
      std::printf("%-22s %10llu %6d %12.2f %12.2f %14.0f %8s\n",
                  r.label.c_str(), static_cast<unsigned long long>(r.requests),
                  r.iters, r.wall_ms_best, r.wall_ms_mean, r.requests_per_s,
                  "-");
    }
    obs::JsonValue c = obs::JsonValue::object();
    c["label"] = r.label;
    c["level"] = r.level_name;
    c["channels"] = r.channels;
    c["sim_threads"] = r.sim_threads;
    c["requests"] = r.requests;
    c["iters"] = r.iters;
    c["wall_ms_best"] = r.wall_ms_best;
    c["wall_ms_mean"] = r.wall_ms_mean;
    c["requests_per_s"] = r.requests_per_s;
    if (r.simt_speedup > 0) c["simt_speedup"] = r.simt_speedup;
    if (r.simd_speedup > 0) c["simd_speedup"] = r.simd_speedup;
    c["simd_compiled"] = std::string(ctrl::kernels::compiled_isa());
    c["simd_active"] = r.simd_active;
    arr.push(std::move(c));
    results.push_back(std::move(r));
    }
  }
  if (simd_twin) {
    std::printf("\nscalar-vs-vector (vector rps / scalar rps):\n");
    for (const auto& r : results) {
      if (r.simd_speedup > 0) {
        std::printf("  %-22s %.2fx\n", r.label.c_str(), r.simd_speedup);
      }
    }
  }

  if (update) {
    const auto old = read_baseline(out_path);
    if (old.empty()) {
      std::fprintf(stderr,
                   "--update: cannot read existing baseline '%s' "
                   "(use --out to create one)\n",
                   out_path.c_str());
      return 2;
    }
    std::printf("\nRefreshing baseline %s:\n", out_path.c_str());
    for (const auto& r : results) {
      double old_rps = 0;
      for (const auto& [label, rps] : old) {
        if (label == r.label) old_rps = rps;
      }
      if (old_rps > 0) {
        std::printf("  %-24s %14.0f -> %14.0f  (%+.1f %%)\n", r.label.c_str(),
                    old_rps, r.requests_per_s,
                    (r.requests_per_s / old_rps - 1.0) * 100.0);
      } else {
        std::printf("  %-24s %14s -> %14.0f  (new cell)\n", r.label.c_str(),
                    "-", r.requests_per_s);
      }
    }
  }

  if (!check_path.empty()) {
    const auto baseline = read_baseline(check_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "cannot read baseline '%s'\n", check_path.c_str());
      return 2;
    }
    bool ok = true;
    std::printf("\nBaseline check vs %s (tolerance %.0f %%):\n",
                check_path.c_str(), tolerance * 100.0);
    for (const auto& [label, base_rps] : baseline) {
      const CellResult* cur = nullptr;
      for (const auto& r : results) {
        if (r.label == label) cur = &r;
      }
      if (cur == nullptr) {
        std::printf("  %-18s MISSING from current run\n", label.c_str());
        ok = false;
        continue;
      }
      const double ratio = base_rps > 0 ? cur->requests_per_s / base_rps : 1.0;
      const bool pass = ratio >= 1.0 - tolerance;
      std::printf("  %-18s %14.0f -> %14.0f  (%+.1f %%) %s\n", label.c_str(),
                  base_rps, cur->requests_per_s, (ratio - 1.0) * 100.0,
                  pass ? "ok" : "REGRESSION");
      ok = ok && pass;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "\nperf smoke FAILED: requests/s dropped more than %.0f %% "
                   "below the baseline.\nIf the regression is intended, refresh "
                   "the baseline (docs/performance.md).\n",
                   tolerance * 100.0);
      return 1;
    }
    std::printf("perf smoke ok\n");
  }

  if (assert_speedup > 0) {
    double best = 0;
    const CellResult* best_cell = nullptr;
    for (const auto& r : results) {
      if (r.sim_threads > 1 && r.simt_speedup > best) {
        best = r.simt_speedup;
        best_cell = &r;
      }
    }
    if (best_cell != nullptr) {
      std::printf("\nbest simt speedup: %.2fx (%s), required >= %.2fx\n", best,
                  best_cell->label.c_str(), assert_speedup);
    }
    if (best < assert_speedup) {
      std::fprintf(stderr,
                   "--assert-speedup FAILED: best multi-worker speedup %.2fx "
                   "is below the required %.2fx\n",
                   best, assert_speedup);
      return 1;
    }
  }

  std::ofstream out(out_path);
  if (out) {
    root.dump(out, 2);
    out << "\n";
    std::printf("\n[baseline: %s]\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }

  if (profile) {
    const std::string prof_path = prof_sidecar_path(out_path);
    obs::JsonValue pset = obs::JsonValue::object();
    pset["schema"] = "mcm.prof_set/v1";
    pset["freq_mhz"] = 400.0;
    pset["fastpath"] = fastpath;
    auto& pcells = pset["cells"];
    pcells = obs::JsonValue::array();
    for (auto& r : results) {
      obs::JsonValue c = obs::JsonValue::object();
      c["label"] = r.label;
      c["iters"] = r.iters;
      c["requests"] = r.requests;
      c["wall_ms_best"] = r.wall_ms_best;
      c["wall_ms_mean"] = r.wall_ms_mean;
      c["profile"] = std::move(r.profile);
      pcells.push(std::move(c));
    }
    std::ofstream pout(prof_path);
    if (pout) {
      pset.dump(pout, 2);
      pout << "\n";
      std::printf("[profile: %s]\n", prof_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", prof_path.c_str());
    }
  }
  return 0;
}
