// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload fig_grid --seed 1 --seconds 20 --trace 0
//             --digests perfbench/digests.json --out-dir .bench_out
//   perfbench --record-digests perfbench/digests.json
//
// A run sets the workload up several times (input generation plus the cold
// stream-cache build) and reports the median as setup_s, then repeats
// passes over the workload's items for --seconds with a closed loop of at
// most two clients. Every item's output is checked: points against the
// digests recorded from the reference build, fuzz cases against the golden
// model. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, from the
// workload's own traced passes (alternating with untraced ones, for the
// tracing overhead) and from the layer probes (layers.hpp). Full results,
// provenance and spans go to --out-dir. Exit status: 0 = a result was
// printed (check "correct"), 2 = usage or setup error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "closed_loop.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "load/stream_cache.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using mcm::obs::JsonValue;
using namespace perfbench;

const double g_process_start_s = wall_now_s();

// Set-ups per timed run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string digests;
  std::string out_dir = ".bench_out";
  std::string describe;
  std::string record_digests;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 --digests FILE [--out-dir DIR] [--describe STR]\n"
               "       perfbench --record-digests FILE\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 0);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--digests") {
      o.digests = v;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--describe") {
      o.describe = v;
    } else if (a == "--record-digests") {
      o.record_digests = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  return o;
}

std::optional<JsonValue> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return mcm::obs::json_parse(ss.str());
}

bool write_json(const std::string& path, const JsonValue& doc) {
  std::ofstream out(path);
  if (!out) return false;
  doc.dump(out, 2);
  out << "\n";
  return static_cast<bool>(out);
}

/// Record the digest of every point item (sharded points at 1 worker, and
/// their 2-worker twins must agree).
int record_digests(const Options& o) {
  SpanRecorder spans;
  JsonValue doc = JsonValue::object();
  doc["schema"] = "perfbench.digests/v1";
  RunSettings rs;
  rs.describe = o.describe;
  doc["provenance"] = provenance(rs);
  for (const std::string& name : workload_names()) {
    Workload w = make_workload(name, 0, spans);
    if (w.items.empty() || w.items.front().kind != ItemKind::kPoint) continue;
    JsonValue& map = doc[name];
    map = JsonValue::object();
    for (const Item& base : w.items) {
      Item twin = base;
      twin.sim.sim_threads = 1;
      const ItemOutcome ref = run_item(twin, spans, 0);
      if (!ref.ok) {
        std::fprintf(stderr, "perfbench: %s %s failed: %s\n", name.c_str(),
                     base.label.c_str(), ref.error.c_str());
        return 2;
      }
      if (base.sim.sim_threads > 1) {
        const ItemOutcome multi = run_item(base, spans, 0);
        if (!multi.ok || multi.digest != ref.digest) {
          std::fprintf(stderr, "perfbench: %s %s: %u-worker run differs from 1 worker\n",
                       name.c_str(), base.label.c_str(), base.sim.sim_threads);
          return 2;
        }
      }
      map[base.label] = ref.digest;
      std::printf("%-14s %-40s %s\n", name.c_str(), base.label.c_str(), ref.digest.c_str());
    }
    mcm::load::StreamCache::instance().clear();
  }
  if (!write_json(o.record_digests, doc)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.record_digests.c_str());
    return 2;
  }
  return 0;
}

struct PassStats {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t requests = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Compares each item's output with what it must be.
class Checker {
 public:
  Checker(const Workload& w, const JsonValue* digests) : w_(w), digests_(digests) {}

  /// Empty when the outcome is correct, else the reason.
  [[nodiscard]] std::string check(const Item& it, const ItemOutcome& o) const {
    if (!o.ok) return o.error;
    if (it.kind != ItemKind::kPoint) return {};
    const JsonValue* set = digests_ != nullptr ? digests_->find(w_.name) : nullptr;
    const JsonValue* want = set != nullptr ? set->find(it.label) : nullptr;
    if (want == nullptr) return "no recorded digest";
    if (want->as_string() != o.digest) {
      return "digest " + o.digest + " != recorded " + want->as_string();
    }
    return {};
  }

 private:
  const Workload& w_;
  const JsonValue* digests_;
};

/// What the passes saw, gathered on the main thread after each pass.
struct ItemLog {
  std::vector<std::string> errors;
  std::map<std::string, double> power_mw;  // point label -> total power
  std::vector<double> point_ms;            // FrameSimulator::run per point
};

PassStats run_pass(const Workload& w, const Checker& checker, SpanRecorder& spans,
                   std::uint64_t& next_id, ItemLog& log) {
  PassStats p;
  p.traced = spans.enabled();
  std::vector<ItemOutcome> outcomes(w.items.size());
  const std::uint64_t id0 = next_id;
  next_id += w.items.size();
  const double c0 = process_cpu_s();
  const double t0 = wall_now_s();
  run_closed_loop(w.items.size(), w.clients, [&](std::size_t i) {
    outcomes[i] = run_item(w.items[i], spans, id0 + i);
  });
  p.wall_s = wall_now_s() - t0;
  p.cpu_s = process_cpu_s() - c0;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    ++p.attempted;
    p.requests += outcomes[i].requests;
    const std::string why = checker.check(w.items[i], outcomes[i]);
    if (!why.empty()) {
      ++p.failed;
      if (log.errors.size() < 20) log.errors.push_back(w.items[i].label + ": " + why);
    }
    if (w.items[i].kind == ItemKind::kPoint) {
      log.power_mw[w.items[i].label] = outcomes[i].total_power_mw;
      log.point_ms.push_back(outcomes[i].sim_ms);
    }
  }
  return p;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  return "\"" + mcm::obs::json_escape(s) + "\"";
}

int run(const Options& o) {
  RunSettings rs;
  rs.workload = o.workload;
  rs.seed = o.seed;
  rs.seconds = o.seconds;
  rs.trace = o.trace;
  rs.describe = o.describe;

  const auto digests = load_json(o.digests);
  if (!digests.has_value()) usage(("cannot read digests file '" + o.digests + "'").c_str());

  // ---- set-up: input generation + cold stream-cache build, repeated ----
  SpanRecorder spans;
  spans.set_enabled(o.trace);
  std::vector<double> setup_s;
  Workload w;
  const int reps = o.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    mcm::load::StreamCache::instance().clear();
    const double t0 = wall_now_s();
    {
      ScopedSpan span(spans, "setup", 0);
      w = make_workload(o.workload, o.seed, spans);
      build_streams(w, spans);
    }
    setup_s.push_back(wall_now_s() - t0);
  }
  rs.clients = w.clients;
  rs.sim_workers = w.sim_workers;
  const auto cache_stats = mcm::load::StreamCache::instance().stats();
  const double first_item_s = wall_now_s() - g_process_start_s;
  const double setup_rss_mib = peak_rss_mib();

  // ---- timed passes (alternating untraced / traced with --trace 1) ----
  const Checker checker(w, &*digests);
  ItemLog log;
  std::vector<PassStats> passes;
  std::uint64_t next_id = 1;
  const double loop0 = wall_now_s();
  const auto pass_walls = [&](bool traced) {
    std::vector<double> v;
    for (const auto& p : passes) {
      if (p.traced == traced) v.push_back(p.wall_s);
    }
    return v;
  };
  for (;;) {
    const bool traced = o.trace && passes.size() % 2 == 1;
    spans.set_enabled(traced);
    passes.push_back(run_pass(w, checker, spans, next_id, log));
    std::vector<double> all;
    for (const auto& p : passes) all.push_back(p.wall_s);
    const double elapsed = wall_now_s() - loop0;
    const bool need_more = o.trace && (pass_walls(true).empty() || pass_walls(false).empty());
    if (!need_more && elapsed + 0.5 * median(all) >= o.seconds) break;
  }
  spans.set_enabled(o.trace);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
  double wall_total = 0;
  std::vector<double> walls;
  std::vector<double> cpus;
  for (const auto& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    if (p.traced) continue;
    requests += p.requests;
    wall_total += p.wall_s;
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  const double fail_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;

  // paper_err_pct (fig_grid): the Fig. 5 anchors are points of the grid.
  double paper_err = -1;
  if (o.workload == "fig_grid") {
    std::vector<double> mw;
    for (const auto& a : paper_anchors()) {
      for (const Item& it : w.items) {
        if (it.usecase.level == a.level && it.system.channels == a.channels &&
            it.system.freq.mhz() == 400.0) {
          mw.push_back(log.power_mw[it.label]);
        }
      }
    }
    paper_err = paper_err_pct(mw);
  }

  LayerReport layers;
  if (!o.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"sim_mreq_per_s",
         wall_total > 0 ? static_cast<double>(requests) / wall_total / 1e6 : 0, "Mreq/s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  } else {
    const auto traced_spans = spans.snapshot();
    layers = run_layer_probes(spans);
    // Workload-own cells override the probes' canonical ones.
    const std::vector<double> traced_walls = pass_walls(true);
    const std::vector<double> untraced_walls = pass_walls(false);
    layers.set("trace.overhead_s", median(traced_walls) - median(untraced_walls), "s");
    layers.set("load.stream_mb", static_cast<double>(cache_stats.stream_bytes) / (1 << 20),
               "MiB");
    layers.set("load.meta_mb", static_cast<double>(cache_stats.meta_bytes) / (1 << 20), "MiB");
    // Point times of every pass, traced or not (more samples for the tail).
    if (!log.point_ms.empty()) {
      layers.set("core.point_ms_p50", median(log.point_ms), "ms");
      const Tail t = tail(log.point_ms);
      layers.set("core.point_ms_tail", t.value, "ms");
      notes.push_back("core.point_ms_tail from the workload: " + describe(t));
    }
    if (o.workload == "fuzz_certify") {
      const auto mean = [&](const char* name) {
        const auto d = durations_ms(traced_spans, name);
        double s = 0;
        for (const double v : d) s += v;
        return d.empty() ? 0.0 : s / static_cast<double>(d.size());
      };
      const std::vector<double> cases = durations_ms(traced_spans, "item");
      layers.set("verify.production_ms", mean("verify.production"), "ms");
      layers.set("verify.reference_ms", mean("verify.reference"), "ms");
      layers.set("verify.compare_ms", mean("verify.compare"), "ms");
      layers.set("verify.case_ms_p50", median(cases), "ms");
      const Tail t = tail(cases);
      layers.set("verify.case_ms_tail", t.value, "ms");
      notes.push_back("verify.case_ms_tail from the workload: " + describe(t));
      const auto gen = durations_ms(traced_spans, "verify.scenario_gen");
      double gen_ms = 0;
      for (const double v : gen) gen_ms += v;
      if (!gen.empty()) {
        layers.set("verify.scenario_gen_ms", gen_ms * 1000.0 / static_cast<double>(gen.size()),
                   "ms/1000");
      }
    }
    for (const auto& f : layers.failures) {
      ++failed;
      ++attempted;
      if (log.errors.size() < 20) log.errors.push_back(f);
    }
    for (const auto& [name, cell] : layers.cells) metrics.push_back({name, cell.value, cell.unit});
    notes.insert(notes.end(), layers.notes.begin(), layers.notes.end());
  }

  // ---- human-readable report ----
  std::printf("perfbench %s seed %llu trace %d: %zu passes (%zu items each), %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              passes.size(), w.items.size(), o.describe.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-32s %14.6g ratio (%llu of %llu items)\n", "fail_frac", fail_frac,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (paper_err >= 0) std::printf("  %-32s %14.6g %%\n", "paper_err_pct", paper_err);
  std::printf("  %-32s %14.6g s\n", "process_start_to_first_item_s", first_item_s);
  for (const auto& n : notes) std::printf("  note: %s\n", n.c_str());
  for (const auto& e : log.errors) std::printf("  FAILED %s\n", e.c_str());

  // ---- result (and span) files ----
  JsonValue doc = JsonValue::object();
  doc["schema"] = "perfbench.result/v1";
  doc["provenance"] = provenance(rs);
  JsonValue& mj = doc["metrics"];
  mj = JsonValue::object();
  for (const auto& m : metrics) {
    JsonValue& e = mj[m.name];
    e["value"] = m.value;
    e["unit"] = m.unit;
  }
  doc["fail_frac"] = fail_frac;
  if (paper_err >= 0) doc["paper_err_pct"] = paper_err;
  doc["process_start_to_first_item_s"] = first_item_s;
  doc["peak_rss_mb_after_setup"] = setup_rss_mib;
  const Quartiles wq = quartiles(walls);
  doc["wall_s_q1"] = wq.q1;
  doc["wall_s_q3"] = wq.q3;
  JsonValue& sj = doc["setup_s_samples"];
  sj = JsonValue::array();
  for (const double s : setup_s) sj.push(s);
  JsonValue& pj = doc["passes"];
  pj = JsonValue::array();
  for (const auto& p : passes) {
    JsonValue e = JsonValue::object();
    e["traced"] = p.traced;
    e["wall_s"] = p.wall_s;
    e["cpu_s"] = p.cpu_s;
    e["requests"] = p.requests;
    e["failed"] = p.failed;
    pj.push(std::move(e));
  }
  JsonValue& ej = doc["errors"];
  ej = JsonValue::array();
  for (const auto& e : log.errors) ej.push(e);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0");
  if (!write_json(stem + ".json", doc)) {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  if (o.trace) {
    const auto all = spans.snapshot();
    JsonValue tj = JsonValue::object();
    tj["schema"] = "perfbench.spans/v1";
    tj["provenance"] = provenance(rs);
    JsonValue& by_name = tj["self_time_by_name"];
    by_name = JsonValue::object();
    std::printf("  span self time (ms), all spans of this run:\n");
    for (const auto& [name, t] : totals_by_name(all)) {
      JsonValue& e = by_name[name];
      e["count"] = t.count;
      e["total_ms"] = static_cast<double>(t.total_ns) / 1e6;
      e["self_ms"] = static_cast<double>(t.self_ns) / 1e6;
      std::printf("    %-36s %8llu %12.3f total %12.3f self\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6, static_cast<double>(t.self_ns) / 1e6);
    }
    JsonValue& list = tj["spans"];
    list = JsonValue::array();
    for (const Span& s : all) {
      JsonValue e = JsonValue::object();
      e["name"] = s.name;
      e["start_ns"] = s.start_ns;
      e["end_ns"] = s.end_ns;
      e["parent"] = s.parent;
      e["item"] = s.item;
      list.push(std::move(e));
    }
    if (!write_json(stem + ".spans.json", tj)) {
      std::fprintf(stderr, "perfbench: cannot write %s.spans.json\n", stem.c_str());
    }
  }

  // ---- the machine-readable last line ----
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (!o.record_digests.empty()) return record_digests(o);
    if (o.workload.empty()) usage("--workload is required");
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
