#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "closed_loop.hpp"
#include "common/rng.hpp"
#include "core/result_export.hpp"
#include "core/sharded_engine.hpp"
#include "load/stream_cache.hpp"
#include "obs/run_report.hpp"
#include "spans.hpp"
#include "verify/differ.hpp"
#include "verify/reference_model.hpp"

namespace perfbench {
namespace {

using mcm::ctrl::PagePolicy;
using mcm::ctrl::SchedulerPolicy;
using mcm::video::H264Level;

mcm::explore::ExplorePoint point(H264Level level, std::uint32_t channels,
                                 double freq_mhz = 400.0,
                                 PagePolicy page = PagePolicy::kOpen,
                                 SchedulerPolicy sched = SchedulerPolicy::kFrFcfs) {
  mcm::explore::ExplorePoint p;
  p.level = level;
  p.channels = channels;
  p.freq_mhz = freq_mhz;
  p.page_policy = page;
  p.scheduler = sched;
  return p;
}

// Items are listed most expensive first so the two clients finish a pass
// close together (host seconds per item measured on a 4-core Xeon box).
Workload fig_grid() {
  Workload w;
  w.name = "fig_grid";
  const auto base = mcm::core::ExperimentConfig::paper_defaults();
  const std::vector<mcm::explore::ExplorePoint> pts = {
      point(H264Level::k52, 8),          // ~5 s: Fig. 5 anchor, 2160p30
      point(H264Level::k40, 4),          // Fig. 5 anchor, 1080p30
      point(H264Level::k42, 8),          // Fig. 4/5, 1080p60
      point(H264Level::k31, 1, 200.0),   // Fig. 3 corners, 720p30
      point(H264Level::k31, 8, 200.0),
      point(H264Level::k31, 1, 533.0),
      point(H264Level::k31, 8, 533.0),
      point(H264Level::k31, 1),          // Fig. 5 anchors, 720p30
      point(H264Level::k31, 8),
      point(H264Level::k32, 2),          // Fig. 4/5, 720p60
  };
  for (const auto& p : pts) w.items.push_back(explore_item(base, p));
  return w;
}

Workload policy_sweep() {
  Workload w;
  w.name = "policy_sweep";
  auto base = mcm::core::ExperimentConfig::paper_defaults();
  base.base.controller.queue_depth = 64;  // the AVX2 arbitration scan engages
  using mcm::core::ExecutionMode;
  w.items = {
      explore_item(base, point(H264Level::k40, 4), ExecutionMode::kConcurrent),
      explore_item(base, point(H264Level::k31, 8, 400.0, PagePolicy::kClosed)),
      explore_item(base, point(H264Level::k31, 1, 400.0, PagePolicy::kClosed)),
      explore_item(base, point(H264Level::k31, 1, 400.0, PagePolicy::kClosed,
                               SchedulerPolicy::kFcfs)),
      explore_item(base, point(H264Level::k31, 8, 400.0, PagePolicy::kOpen,
                               SchedulerPolicy::kFcfs)),
      explore_item(base, point(H264Level::k31, 4), ExecutionMode::kConcurrent),
      explore_item(base, point(H264Level::k31, 1, 400.0, PagePolicy::kOpen,
                               SchedulerPolicy::kFcfs)),
      explore_item(base, point(H264Level::k31, 1)),
  };
  return w;
}

Workload sharded_frames() {
  Workload w;
  w.name = "sharded_frames";
  w.clients = 1;
  w.sim_workers = 2;
  const auto base = mcm::core::ExperimentConfig::paper_defaults();
  for (const auto& [level, channels] :
       {std::pair{H264Level::k40, 4u}, {H264Level::k31, 8u}, {H264Level::k31, 4u}}) {
    Item it;
    it.kind = ItemKind::kPoint;
    mcm::explore::ExplorePoint p = point(level, channels);
    it.label = p.label() + "/gop2x4";
    it.system = p.system(base);
    it.usecase = p.usecase(base);
    it.sim = base.sim;
    it.sim.frames = 4;      // I P I P
    it.sim.gop_length = 2;
    it.sim.sim_threads = w.sim_workers;
    w.items.push_back(std::move(it));
  }
  return w;
}

constexpr std::uint64_t kFuzzCases = 3000;

// Scenarios run with one sim worker. At two, ~87 % of the cases start and
// join a worker thread for a run of ~650 requests; on a shared 4-core box
// that handoff swung the pass wall time between 1.8 and 4.6 s across runs
// (IQR 38 % of the median). The two-worker engine is measured on
// sharded_frames instead.
Workload fuzz_certify(std::uint64_t seed, SpanRecorder& spans) {
  Workload w;
  w.name = "fuzz_certify";
  w.clients = 1;
  w.sim_workers = 1;
  mcm::Rng master(seed);
  w.items.reserve(kFuzzCases);
  for (std::uint64_t i = 0; i < kFuzzCases; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    // Thirds: plain, workload generators, generators plus device classes.
    const bool generators = i % 3 != 0;
    const bool classes = i % 3 == 2;
    Item it;
    it.kind = ItemKind::kCase;
    {
      ScopedSpan span(spans, "verify.scenario_gen", i);
      it.scenario = mcm::verify::random_scenario(case_seed, generators, classes);
    }
    it.scenario.sim_threads = w.sim_workers;
    char label[64];
    std::snprintf(label, sizeof label, "case-%016llx%s",
                  static_cast<unsigned long long>(case_seed),
                  classes ? "/gen+classes" : generators ? "/gen" : "");
    it.label = label;
    w.items.push_back(std::move(it));
  }
  return w;
}

void build_point_streams(const Item& it, SpanRecorder& spans, std::uint64_t id) {
  if (it.sim.mode != mcm::core::ExecutionMode::kStateMachine || it.sim.legacy_feed) {
    return;  // the concurrent feed loop generates its sources per frame
  }
  std::vector<std::shared_ptr<const mcm::load::CachedWorkload>> built;
  {
    ScopedSpan span(spans, "load.stream_build", id);
    built.push_back(cached_stream(it.system, it.usecase, it.sim.load, false));
  }
  if (it.sim.gop_length > 1) {
    ScopedSpan span(spans, "load.stream_build", id);
    built.push_back(cached_stream(it.system, it.usecase, it.sim.load, true));
  }
  const unsigned workers =
      mcm::core::resolve_sim_threads(it.sim.sim_threads, it.system.channels);
  if (workers <= 1 || mcm::core::resolve_sim_chunk(it.sim.sim_chunk) <= 1) return;
  auto& cache = mcm::load::StreamCache::instance();
  ScopedSpan span(spans, "load.chunk_meta", id);
  for (const auto& wl : built) {
    for (std::size_t s = 0; s < wl->stages.size(); ++s) {
      (void)cache.chunk_meta(*wl, s, it.system.channels, it.system.interleave_bytes);
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig_grid", "policy_sweep",
                                                 "sharded_frames", "fuzz_certify"};
  return names;
}

Item explore_item(const mcm::core::ExperimentConfig& base,
                  const mcm::explore::ExplorePoint& p, mcm::core::ExecutionMode mode) {
  Item it;
  it.kind = ItemKind::kPoint;
  it.label = p.label();
  if (mode == mcm::core::ExecutionMode::kConcurrent) it.label += "/concurrent";
  it.system = p.system(base);
  it.usecase = p.usecase(base);
  it.sim = base.sim;
  it.sim.mode = mode;
  it.sim.load.seed = p.seed(base.sim.load.seed);
  it.sim.sim_threads = 1;
  return it;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       SpanRecorder& spans) {
  if (name == "fig_grid") return fig_grid();
  if (name == "policy_sweep") return policy_sweep();
  if (name == "sharded_frames") return sharded_frames();
  if (name == "fuzz_certify") return fuzz_certify(seed, spans);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::shared_ptr<const mcm::load::CachedWorkload> cached_stream(
    const mcm::multichannel::SystemConfig& system,
    const mcm::video::UseCaseParams& usecase, const mcm::load::LoadOptions& load,
    bool intra) {
  // Mirrors FrameSimulator::run: surfaces aligned to a whole interleave
  // stripe, one request per device burst, and the I-frame stream laid out
  // with the P-frame model's surfaces.
  const mcm::video::UseCaseModel model(usecase);
  const std::uint64_t align = std::max<std::uint64_t>(
      64 * 1024, static_cast<std::uint64_t>(system.interleave_bytes) * system.channels);
  const mcm::video::SurfaceLayout layout(model, align);
  mcm::load::LoadOptions opt = load;
  opt.burst_bytes = system.device.org.bytes_per_burst();
  opt.chunk_bytes = std::max(opt.chunk_bytes, opt.burst_bytes);
  auto& cache = mcm::load::StreamCache::instance();
  if (!intra) return cache.get(model, layout, align, opt);
  mcm::video::UseCaseParams intra_params = usecase;
  intra_params.encoder_ref_factor = 0.0;
  return cache.get(mcm::video::UseCaseModel(intra_params), layout, align, opt);
}

void build_streams(const Workload& w, SpanRecorder& spans) {
  // Builds run on the same clients as the points that read them.
  run_closed_loop(w.items.size(), w.clients, [&](std::size_t i) {
    if (w.items[i].kind == ItemKind::kPoint) build_point_streams(w.items[i], spans, i);
  });
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string point_digest(const std::string& label,
                         const mcm::core::FrameSimResult& r) {
  // The same document RunReport::add_point + export_result produce.
  mcm::obs::JsonValue pt = mcm::obs::JsonValue::object();
  pt["label"] = label;
  mcm::core::export_result(pt, r);
  return fnv1a_hex(pt.dump_string(0));
}

ItemOutcome run_item(const Item& item, SpanRecorder& spans, std::uint64_t item_id) {
  ItemOutcome out;
  ScopedSpan item_span(spans, "item", item_id);
  try {
    if (item.kind == ItemKind::kPoint) {
      mcm::core::FrameSimResult r;
      {
        ScopedSpan span(spans, "core.point", item_id);
        const auto t0 = std::chrono::steady_clock::now();
        r = mcm::core::FrameSimulator(item.sim).run(item.system, item.usecase);
        out.sim_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      }
      {
        // What a figure bench does per point: export, then write the report.
        ScopedSpan span(spans, "obs.export", item_id);
        mcm::obs::RunReport report("perfbench");
        mcm::obs::JsonValue& pt = report.add_point(item.label);
        mcm::core::export_result(pt, r);
        out.digest = fnv1a_hex(pt.dump_string(0));
        std::ostringstream sink;
        report.write(sink);
      }
      out.requests = r.stats.accesses();
      out.total_power_mw = r.total_power_mw;
      out.ok = true;
      return out;
    }
    const mcm::verify::Scenario& s = item.scenario;
    out.requests = s.total_requests();
    mcm::verify::Outcome production;
    mcm::verify::Outcome reference;
    {
      ScopedSpan span(spans, "verify.production", item_id);
      production = mcm::verify::run_production(s);
    }
    {
      ScopedSpan span(spans, "verify.reference", item_id);
      reference = mcm::verify::reference_outcome(s, mcm::verify::run_reference(s));
    }
    std::optional<std::string> mismatch;
    {
      ScopedSpan span(spans, "verify.compare", item_id);
      mismatch = mcm::verify::compare_outcomes(production, reference);
    }
    if (mismatch.has_value()) {
      out.error = "mismatch: " + *mismatch;
      return out;
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  return out;
}

const std::vector<PaperAnchor>& paper_anchors() {
  static const std::vector<PaperAnchor> anchors = {
      {H264Level::k31, 1, 150.0},
      {H264Level::k31, 8, 205.0},
      {H264Level::k40, 4, 345.0},
      {H264Level::k52, 8, 1280.0},
  };
  return anchors;
}

double paper_err_pct(const std::vector<double>& measured_mw) {
  const auto& anchors = paper_anchors();
  if (measured_mw.size() != anchors.size()) {
    throw std::invalid_argument("paper_err_pct: one value per anchor expected");
  }
  double sum = 0;
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    sum += std::fabs(measured_mw[i] - anchors[i].paper_mw) / anchors[i].paper_mw;
  }
  return 100.0 * sum / static_cast<double>(anchors.size());
}

}  // namespace perfbench
