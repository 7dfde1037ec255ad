#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "controller/memory_controller.hpp"
#include "core/experiments.hpp"
#include "core/result_export.hpp"
#include "core/sharded_engine.hpp"
#include "explore/orchestrator.hpp"
#include "host.hpp"
#include "load/stream_cache.hpp"
#include "multichannel/interleaver.hpp"
#include "obs/run_report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mcm::Time;
using mcm::load::CachedStage;
using mcm::load::CachedWorkload;
using mcm::load::StreamCache;
using mcm::video::H264Level;

constexpr int kReps = 3;  // repetitions behind every probe median

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// The canonical point of a probe: paper defaults, load seed 1.
struct Canon {
  mcm::multichannel::SystemConfig system;
  mcm::video::UseCaseParams usecase;
  mcm::core::FrameSimOptions sim;
};

Canon canon(H264Level level, std::uint32_t channels) {
  const auto cfg = mcm::core::ExperimentConfig::paper_defaults();
  Canon c;
  c.system = cfg.base;
  c.system.channels = channels;
  c.usecase = cfg.usecase;
  c.usecase.level = level;
  c.sim = cfg.sim;
  return c;
}

std::shared_ptr<const CachedWorkload> stream_of(const Canon& c) {
  return cached_stream(c.system, c.usecase, c.sim.load, false);
}

// ---- load ---------------------------------------------------------------

void probe_load(SpanRecorder& spans, LayerReport& out) {
  auto& cache = StreamCache::instance();
  double total_ms = 0;
  for (const H264Level level : mcm::video::kAllLevels) {
    cache.clear();
    const double t0 = wall_now_s();
    {
      ScopedSpan span(spans, "probe.load.stream_build", 0);
      (void)stream_of(canon(level, 4));
    }
    const double ms = (wall_now_s() - t0) * 1e3;
    total_ms += ms;
    out.notes.push_back("load: cold stream build L" +
                        std::string(mcm::video::level_spec(level).name) +
                        fmt(" %.1f ms", ms));
  }
  out.set("load.stream_build_ms", total_ms, "ms");

  std::vector<double> meta_ms;
  for (int r = 0; r < kReps; ++r) {
    cache.clear();
    const auto wl = stream_of(canon(H264Level::k31, 8));
    const double t0 = wall_now_s();
    {
      ScopedSpan span(spans, "probe.load.chunk_meta", 0);
      for (std::size_t s = 0; s < wl->stages.size(); ++s) {
        (void)cache.chunk_meta(*wl, s, 8, 16);
      }
    }
    meta_ms.push_back((wall_now_s() - t0) * 1e3);
  }
  out.set("load.chunk_meta_ms", median(meta_ms), "ms");
  cache.clear();
}

// ---- controller / multichannel -------------------------------------------

/// One channel's share of a cached stream: channel-local packed requests
/// per stage (routing done up front so the replay times the controller
/// alone).
struct ChannelShare {
  std::vector<std::vector<std::uint64_t>> stages;
  std::vector<std::uint16_t> sources;
  std::uint64_t requests = 0;
};

ChannelShare share_of(const CachedWorkload& wl, std::uint32_t channels,
                      std::uint32_t granularity, std::uint32_t channel) {
  const mcm::multichannel::Interleaver il(channels, granularity);
  ChannelShare s;
  for (const CachedStage& st : wl.stages) {
    std::vector<std::uint64_t> mine;
    for (const std::uint64_t packed : st.reqs) {
      const auto routed = il.route(CachedStage::addr_of(packed));
      if (routed.channel == channel) {
        mine.push_back(CachedStage::pack(routed.local, CachedStage::is_write_of(packed)));
      }
    }
    s.requests += mine.size();
    s.stages.push_back(std::move(mine));
    s.sources.push_back(st.source_id);
  }
  return s;
}

struct Replay {
  double seconds = 0;
  std::uint64_t requests = 0;
  std::uint64_t row_hits = 0;
};

/// Controller-only replay with the state-machine semantics of the engines:
/// a stage's requests all arrive at the stage start, a full queue serves
/// one request, the stage drains before the next one starts.
Replay replay(const ChannelShare& share, const mcm::multichannel::SystemConfig& sys,
              std::uint32_t channel) {
  mcm::ctrl::MemoryController mc(sys.channel_device(channel), sys.freq, sys.mux,
                                 sys.controller);
  Time stage_start = Time::zero();
  const double t0 = wall_now_s();
  for (std::size_t si = 0; si < share.stages.size(); ++si) {
    Time last = stage_start;
    for (const std::uint64_t packed : share.stages[si]) {
      if (!mc.can_accept()) last = max(last, mc.process_one().done);
      mcm::ctrl::Request r;
      r.addr = CachedStage::addr_of(packed);
      r.is_write = CachedStage::is_write_of(packed);
      r.arrival = stage_start;
      r.source = share.sources[si];
      mc.enqueue(r);
    }
    while (mc.has_pending()) last = max(last, mc.process_one().done);
    stage_start = max(stage_start, last);
  }
  Replay out;
  out.seconds = wall_now_s() - t0;
  out.requests = mc.stats().accesses();
  out.row_hits = mc.stats().row_hits;
  return out;
}

void probe_controller(SpanRecorder& spans, LayerReport& out) {
  const Canon c = canon(H264Level::k31, 4);
  const auto wl = stream_of(c);
  const ChannelShare share = share_of(*wl, 4, c.system.interleave_bytes, 0);

  auto slow_sys = c.system;
  slow_sys.controller.page_policy = mcm::ctrl::PagePolicy::kClosed;
  slow_sys.controller.scheduler = mcm::ctrl::SchedulerPolicy::kFcfs;
  slow_sys.controller.queue_depth = 64;

  for (const auto& [name, sys] :
       {std::pair{std::string("fast"), c.system}, std::pair{std::string("slow"), slow_sys}}) {
    std::vector<double> ns;
    Replay last;
    for (int r = 0; r < kReps; ++r) {
      ScopedSpan span(spans, "probe.controller." + name, 0);
      last = replay(share, sys, 0);
      ns.push_back(last.seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, last.requests)));
    }
    out.set("controller." + name + "_ns_per_req", median(ns), "ns");
    const double hit = static_cast<double>(last.row_hits) /
                       static_cast<double>(std::max<std::uint64_t>(1, last.requests));
    if (name == "fast") out.set("controller.row_hit_frac", hit, "ratio");
    out.notes.push_back("controller " + name +
                        fmt(": %.1f ns/req, row hits %.0f of %.0f", median(ns),
                            static_cast<double>(last.row_hits),
                            static_cast<double>(last.requests)));
  }
}

void probe_select(SpanRecorder& spans, LayerReport& out) {
  const Canon c = canon(H264Level::k31, 8);
  const auto wl = stream_of(c);
  const Time period = mcm::video::UseCaseModel(c.usecase).frame_period();
  std::vector<ChannelShare> shares;
  for (std::uint32_t ch = 0; ch < 8; ++ch) {
    shares.push_back(share_of(*wl, 8, c.system.interleave_bytes, ch));
  }
  std::vector<double> select_ns;
  for (int r = 0; r < kReps; ++r) {
    double seq_s = 0;
    {
      ScopedSpan span(spans, "probe.multichannel.sequential", 0);
      mcm::multichannel::MemorySystem sys(c.system);
      const double t0 = wall_now_s();
      (void)mcm::core::run_sequential_frames(sys, {wl.get()}, period);
      seq_s = wall_now_s() - t0;
    }
    double ctrl_s = 0;
    {
      ScopedSpan span(spans, "probe.multichannel.controller_only", 0);
      for (std::uint32_t ch = 0; ch < 8; ++ch) ctrl_s += replay(shares[ch], c.system, ch).seconds;
    }
    select_ns.push_back((seq_s - ctrl_s) * 1e9 / static_cast<double>(wl->total_requests));
  }
  out.set("multichannel.select_ns_per_req", median(select_ns), "ns");
}

// ---- core engines, finalize, power ----------------------------------------

void probe_engines(SpanRecorder& spans, LayerReport& out) {
  const Canon c = canon(H264Level::k31, 4);
  const auto wl = stream_of(c);
  const Time period = mcm::video::UseCaseModel(c.usecase).frame_period();
  std::vector<double> engine_ms, seq_ms, finalize_ms, power_ms;
  for (int r = 0; r < kReps; ++r) {
    mcm::multichannel::MemorySystem sys(c.system);
    double t0 = wall_now_s();
    mcm::core::ShardedRunOutput run;
    {
      ScopedSpan span(spans, "probe.core.engine", 0);
      run = mcm::core::run_sharded_frames(sys, {wl.get()}, period, 1);
    }
    engine_ms.push_back((wall_now_s() - t0) * 1e3);
    const Time window = max(run.end_time, period);
    t0 = wall_now_s();
    {
      ScopedSpan span(spans, "probe.multichannel.finalize", 0);
      sys.finalize(window);
    }
    finalize_ms.push_back((wall_now_s() - t0) * 1e3);
    t0 = wall_now_s();
    {
      ScopedSpan span(spans, "probe.multichannel.power", 0);
      (void)sys.power(window);
    }
    power_ms.push_back((wall_now_s() - t0) * 1e3);

    mcm::multichannel::MemorySystem seq_sys(c.system);
    t0 = wall_now_s();
    mcm::core::ShardedRunOutput seq;
    {
      ScopedSpan span(spans, "probe.core.seq_engine", 0);
      seq = mcm::core::run_sequential_frames(seq_sys, {wl.get()}, period);
    }
    seq_ms.push_back((wall_now_s() - t0) * 1e3);
    if (seq.end_time != run.end_time ||
        seq_sys.stats().accesses() != sys.stats().accesses()) {
      out.failures.push_back("core: run_sequential_frames and run_sharded_frames disagree");
    }
  }
  out.set("core.engine_ms", median(engine_ms), "ms");
  out.set("core.seq_engine_ms", median(seq_ms), "ms");
  out.set("multichannel.finalize_ms", median(finalize_ms), "ms");
  out.set("multichannel.power_ms", median(power_ms), "ms");
}

/// sharded_frames streams at 2 vs 1 workers (and the twin digest check).
void probe_simt(SpanRecorder& spans, LayerReport& out) {
  SpanRecorder quiet;  // item-level spans of the probe are not wanted
  Workload w = make_workload("sharded_frames", 0, quiet);
  build_streams(w, quiet);
  double wall[2] = {0, 0};
  double cpu[2] = {0, 0};
  for (const Item& base : w.items) {
    std::string digest[2];
    for (const unsigned workers : {1u, 2u}) {
      Item it = base;
      it.sim.sim_threads = workers;
      const double c0 = process_cpu_s();
      const double t0 = wall_now_s();
      mcm::core::FrameSimResult r;
      {
        ScopedSpan span(spans, workers == 1 ? "probe.core.simt1" : "probe.core.simt2", 0);
        r = mcm::core::FrameSimulator(it.sim).run(it.system, it.usecase);
      }
      wall[workers - 1] += wall_now_s() - t0;
      cpu[workers - 1] += process_cpu_s() - c0;
      digest[workers - 1] = point_digest(it.label, r);
    }
    if (digest[0] != digest[1]) {
      out.failures.push_back("core: " + base.label + " 2-worker digest differs from its 1-worker twin");
    }
  }
  out.set("core.simt_ratio", wall[1] > 0 ? wall[0] / wall[1] : 0, "ratio");
  out.set("core.sync_cpu_ms", (cpu[1] - cpu[0]) * 1e3, "ms");
  out.notes.push_back(fmt("core: sharded streams 1 worker %.3f s, 2 workers %.3f s wall",
                          wall[0], wall[1]));
  StreamCache::instance().clear();
}

/// Orchestrator::run on a small Fig. 3 grid vs the same points run solo.
void probe_pool(SpanRecorder& spans, LayerReport& out) {
  mcm::explore::ExperimentSpec spec;
  spec.levels = {H264Level::k31};
  spec.channels = {1, 2, 4, 8};
  spec.freq_mhz = {200.0, 400.0};
  SpanRecorder quiet;
  // Warm the stream cache so both sides time the engine, not the build.
  Workload warm;
  warm.clients = 2;
  for (const auto& p : spec.expand()) warm.items.push_back(explore_item(spec.base, p));
  build_streams(warm, quiet);

  mcm::explore::OrchestratorOptions opt;
  opt.threads = 2;
  double pool_s = 0;
  mcm::explore::ExploreRun run;
  {
    ScopedSpan span(spans, "probe.explore.orchestrator", 0);
    const double t0 = wall_now_s();
    run = mcm::explore::Orchestrator(opt).run(spec);
    pool_s = wall_now_s() - t0;
  }
  std::vector<double> solo_ms;
  for (std::size_t i = 0; i < warm.items.size(); ++i) {
    const Item& it = warm.items[i];
    const double t0 = wall_now_s();
    mcm::core::FrameSimResult r;
    {
      ScopedSpan span(spans, "probe.core.point", i);
      r = mcm::core::FrameSimulator(it.sim).run(it.system, it.usecase);
    }
    solo_ms.push_back((wall_now_s() - t0) * 1e3);
    if (point_digest(it.label, r) != point_digest(it.label, run.results[i].sim)) {
      out.failures.push_back("explore: " + it.label + " differs between pool and solo runs");
    }
  }
  double solo_sum_s = 0;
  for (const double ms : solo_ms) solo_sum_s += ms / 1e3;
  out.set("explore.pool_busy_frac", pool_s > 0 ? solo_sum_s / (2.0 * pool_s) : 0, "ratio");
  out.set("core.point_ms_p50", median(solo_ms), "ms");
  const Tail t = tail(solo_ms);
  out.set("core.point_ms_tail", t.value, "ms");
  out.notes.push_back(fmt("explore: pool wall %.3f s vs solo sum %.3f s", pool_s, solo_sum_s));
  out.notes.push_back("core.point_ms_tail from the probe grid: " + describe(t));

  // obs: export + report write of one point result, repeated.
  std::vector<double> export_ms;
  for (int r = 0; r < 20; ++r) {
    const double t0 = wall_now_s();
    {
      ScopedSpan span(spans, "probe.obs.export", 0);
      mcm::obs::RunReport report("perfbench");
      mcm::core::export_result(report.add_point(warm.items[0].label), run.results[0].sim);
      std::ostringstream sink;
      report.write(sink);
    }
    export_ms.push_back((wall_now_s() - t0) * 1e3);
  }
  out.set("obs.export_ms", median(export_ms), "ms");
  StreamCache::instance().clear();
}

/// A fixed set of fuzz cases through the three differ calls.
void probe_verify(SpanRecorder& spans, LayerReport& out) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const double g0 = wall_now_s();
  Workload w = make_workload("fuzz_certify", 1, rec);
  const double gen_s = wall_now_s() - g0;
  constexpr std::size_t kCases = 300;
  w.items.resize(kCases);
  {
    ScopedSpan span(spans, "probe.verify.cases", 0);
    for (std::size_t i = 0; i < w.items.size(); ++i) {
      const ItemOutcome o = run_item(w.items[i], rec, i);
      if (!o.ok) out.failures.push_back("verify: " + w.items[i].label + ": " + o.error);
    }
  }
  const auto spans_now = rec.snapshot();
  const auto mean_ms = [&](const std::string& name) {
    const auto d = durations_ms(spans_now, name);
    double s = 0;
    for (const double v : d) s += v;
    return d.empty() ? 0.0 : s / static_cast<double>(d.size());
  };
  out.set("verify.production_ms", mean_ms("verify.production"), "ms");
  out.set("verify.reference_ms", mean_ms("verify.reference"), "ms");
  out.set("verify.compare_ms", mean_ms("verify.compare"), "ms");
  const auto cases = durations_ms(spans_now, "item");
  out.set("verify.case_ms_p50", median(cases), "ms");
  const Tail ct = tail(cases);
  out.set("verify.case_ms_tail", ct.value, "ms");
  out.notes.push_back("verify.case_ms_tail from the probe cases: " + describe(ct));
  // random_scenario for the whole generated set, per 1000 cases.
  const auto gen = durations_ms(spans_now, "verify.scenario_gen");
  double gen_ms = 0;
  for (const double v : gen) gen_ms += v;
  out.set("verify.scenario_gen_ms",
          gen.empty() ? gen_s * 1e3 : gen_ms * 1000.0 / static_cast<double>(gen.size()),
          "ms/1000");
}

}  // namespace

LayerReport run_layer_probes(SpanRecorder& spans) {
  LayerReport out;
  StreamCache::instance().clear();
  probe_load(spans, out);
  probe_controller(spans, out);
  probe_select(spans, out);
  probe_engines(spans, out);
  StreamCache::instance().clear();
  probe_simt(spans, out);
  probe_pool(spans, out);
  probe_verify(spans, out);
  return out;
}

}  // namespace perfbench
