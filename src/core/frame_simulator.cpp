#include "core/frame_simulator.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "core/sharded_engine.hpp"
#include "load/stream_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace mcm::core {
namespace {

bool is_paced_stage(const load::TrafficSource& src) {
  return src.name() == "DisplayCtrl" || src.name() == "Audio capture";
}

/// A source with its head request cached. A paced source's head() costs a
/// 64-bit modulo and the float pacing arithmetic, and the concurrent feed
/// reads each head several times per request served, so the head is read
/// once per advance(). Construct after the source's set_start()/set_pacing().
class HeadCache {
 public:
  explicit HeadCache(load::TrafficSource& src) : src_(&src) { refresh(); }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const ctrl::Request& head() const { return head_; }
  void advance() {
    src_->advance();
    refresh();
  }

 private:
  void refresh() {
    done_ = src_->done();
    if (!done_) head_ = src_->head();
  }

  load::TrafficSource* src_;
  ctrl::Request head_;
  bool done_ = true;
};

/// Sweeps re-run the same oversized use case for every grid point; warn
/// once per distinct (working set, capacity) pair instead of per run.
void warn_capacity_once(std::uint64_t working_set, std::uint64_t capacity) {
  static std::mutex mutex;
  static std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  {
    std::lock_guard lock(mutex);
    if (!seen.insert({working_set, capacity}).second) return;
  }
  MCM_LOG_WARN("use-case working set (%llu B) exceeds memory capacity (%llu B); "
               "addresses wrap",
               static_cast<unsigned long long>(working_set),
               static_cast<unsigned long long>(capacity));
}

}  // namespace

void fill_frame_result(FrameSimResult& r, const ShardedRunOutput& out,
                       const multichannel::MemorySystem& sys, int frames,
                       Time window, double margin) {
  r.window = window;
  r.access_time = Time{out.access_accum.ps() / frames};
  r.per_frame_access = out.per_frame_access;
  r.bytes_per_frame = out.bytes_first_frame;
  for (std::size_t i = 0; i < out.first_frame_stages.size(); ++i) {
    r.stage_results.push_back(StageResult{out.first_frame_stages[i].first,
                                          out.first_frame_completed[i],
                                          out.first_frame_stages[i].second});
  }
  r.meets_realtime = r.access_time <= r.frame_period;
  r.meets_realtime_with_margin =
      r.access_time.seconds() <= r.frame_period.seconds() * (1.0 - margin);
  r.achieved_bandwidth_bytes_per_s =
      r.access_time > Time::zero()
          ? static_cast<double>(r.bytes_per_frame) / r.access_time.seconds()
          : 0.0;
  r.stats = sys.stats();
  r.power = sys.power(window);
  r.dram_power_mw = r.power.dram_mw;
  r.interface_power_mw = r.power.interface_mw;
  r.total_power_mw = r.power.total_mw;
}

FrameSimResult FrameSimulator::run(const multichannel::SystemConfig& system,
                                   const video::UseCaseParams& usecase) const {
  if (!obs::prof::enabled()) return run_impl(system, usecase);

  FrameSimResult result;
  {
    static const obs::prof::PhaseId kRun = obs::prof::phase_id("sim/run");
    obs::prof::ScopedTimer span(kRun);
    result = run_impl(system, usecase);
  }
  if (!opt_.prof_path.empty()) {
    const obs::prof::ProfileReport report = obs::prof::collect(/*reset=*/true);
    std::ofstream out(opt_.prof_path);
    if (out) {
      report.to_json(/*with_spans=*/true).dump(out);
      out << '\n';
    } else {
      MCM_LOG_WARN("cannot open profile file '%s'", opt_.prof_path.c_str());
    }
  }
  return result;
}

std::optional<FieldError> FrameSimOptions::validate() const {
  if (frames < 1) return FieldError{"frames", "must be >= 1"};
  if (gop_length < 0) return FieldError{"gop_length", "must be >= 0"};
  return std::nullopt;
}

FrameSimResult FrameSimulator::run_impl(
    const multichannel::SystemConfig& system,
    const video::UseCaseParams& usecase) const {
  (void)validated(opt_);
  const video::UseCaseModel model(usecase);

  multichannel::MemorySystem sys(system);
  // Surfaces start on a whole interleave stripe across all channels so the
  // load is identical (per channel) regardless of channel count.
  const std::uint64_t stripe =
      static_cast<std::uint64_t>(system.interleave_bytes) * system.channels;
  const std::uint64_t align = std::max<std::uint64_t>(64 * 1024, stripe);
  const video::SurfaceLayout layout(model, align);
  if (layout.total_bytes() > sys.capacity_bytes()) {
    warn_capacity_once(layout.total_bytes(), sys.capacity_bytes());
  }

  // Opt-in structured tracing; writers must outlive all channel activity
  // (finalize still issues PRE/REF/PDE commands into them).
  std::ofstream trace_file;
  bool tracing = false;
  if (!opt_.trace_path.empty()) {
    trace_file.open(opt_.trace_path);
    if (trace_file) {
      tracing = true;
    } else {
      MCM_LOG_WARN("cannot open trace file '%s'; tracing disabled",
                   opt_.trace_path.c_str());
    }
  }

  const Time period = model.frame_period();
  FrameSimResult result;
  result.frame_period = period;
  result.demand_bandwidth_bytes_per_s = model.total_mb_per_second() * 1e6;
  ShardedRunOutput out;

  // One request = one device burst; the load granularity follows the device
  // (16 B for the paper's x32 BL4 DDR, 64 B for a wide SDR interface).
  load::LoadOptions load_opt = opt_.load;
  load_opt.burst_bytes = system.device.org.bytes_per_burst();
  load_opt.chunk_bytes = std::max(load_opt.chunk_bytes, load_opt.burst_bytes);

  // GOP structure: I frames carry no encoder reference traffic.
  std::unique_ptr<video::UseCaseModel> intra_model;
  if (opt_.gop_length > 1) {
    video::UseCaseParams intra_params = usecase;
    intra_params.encoder_ref_factor = 0.0;
    intra_model = std::make_unique<video::UseCaseModel>(intra_params);
  }

  // Per-channel trace spools for the state-machine feed, merged into
  // canonical order after finalize. The concurrent loop's streaming sink
  // also lives here so it outlives finalize's trailing PRE/REF/PDE commands.
  std::vector<obs::TraceSpool> spools;
  std::unique_ptr<obs::TraceSink> trace;

  if (opt_.mode == ExecutionMode::kStateMachine) {
    // The memoized per-frame request stream: one enumeration per format,
    // replayed into every grid point that shares it.
    auto& cache = load::StreamCache::instance();
    std::shared_ptr<const load::CachedWorkload> workload;
    std::shared_ptr<const load::CachedWorkload> intra_workload;
    {
      static const obs::prof::PhaseId kLoad =
          obs::prof::phase_id("sim/load_build");
      obs::prof::ScopedTimer span(kLoad);
      workload = cache.get(model, layout, align, load_opt);
      if (intra_model != nullptr) {
        intra_workload = cache.get(*intra_model, layout, align, load_opt);
      }
    }
    std::vector<const load::CachedWorkload*> frames(
        static_cast<std::size_t>(opt_.frames), workload.get());
    if (intra_model != nullptr) {
      for (int f = 0; f < opt_.frames; ++f) {
        if (f % opt_.gop_length == 0) frames[f] = intra_workload.get();
      }
    }
    if (tracing) {
      spools.resize(sys.channel_count());
      for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
        sys.attach_trace(&spools[c], c);
      }
    }

    static const obs::prof::PhaseId kEngine = obs::prof::phase_id("sim/engine");
    obs::prof::ScopedTimer engine_span(kEngine);
    out = run_sequential_frames(sys, frames, period);
    engine_span.stop();
  } else {
    // kConcurrent: the paced masters need a live heap loop over the real
    // sources (see MemorySystem's try_submit/process_next).
    const std::uint32_t burst = system.device.org.bytes_per_burst();
    const auto book_stage = [&](std::string name, Time completed,
                                std::uint64_t bytes) {
      out.first_frame_stages.emplace_back(std::move(name), bytes);
      out.first_frame_completed.push_back(completed);
    };
    Time t = Time::zero();
    if (tracing) {
      trace = std::make_unique<obs::TraceSink>(trace_file);
      sys.attach_trace(trace.get());
    }

    for (int frame = 0; frame < opt_.frames; ++frame) {
      const Time frame_start = t;
      const bool is_intra =
          intra_model != nullptr && frame % opt_.gop_length == 0;
      const std::vector<std::unique_ptr<load::TrafficSource>> sources =
          load::build_stage_sources(is_intra ? *intra_model : model, layout,
                                    load_opt);

      // Split off the paced masters.
      std::vector<HeadCache> paced;
      for (const auto& src : sources) {
        if (!is_paced_stage(*src)) continue;
        src->set_start(frame_start);
        src->set_pacing(period);
        paced.emplace_back(*src);
      }

      Time stage_start = frame_start;
      Time stage_last_done = frame_start;
      std::uint16_t current_stage_id = 0xffff;

      const auto on_complete = [&](const ctrl::Completion& c) {
        if (c.req.source == current_stage_id) {
          stage_last_done = max(stage_last_done, c.done);
        } else {
          result.paced_last_done = max(result.paced_last_done, c.done);
          result.paced_latency_ns.add(c.latency().ns());
        }
      };

      // The paced master with the earliest pending request (merge display and
      // audio by arrival so neither starves behind the other's future-dated
      // requests).
      const auto next_paced = [&]() -> HeadCache* {
        HeadCache* best = nullptr;
        for (HeadCache& p : paced) {
          if (p.done()) continue;
          if (best == nullptr || p.head().arrival < best->head().arrival) best = &p;
        }
        return best;
      };

      // Feed every paced request whose arrival the system has reached. The
      // display/audio masters have priority: when their target queue is full,
      // the memory system is driven until a slot frees (a display underflow is
      // a visible artifact, so real arbiters give scan-out the highest
      // priority).
      const auto feed_paced = [&](Time up_to) {
        while (HeadCache* p = next_paced()) {
          if (p->head().arrival > up_to) break;
          if (sys.try_submit(p->head())) {
            p->advance();
            if (frame == 0) out.bytes_first_frame += burst;
          } else if (auto c = sys.process_next()) {
            on_complete(*c);
          } else {
            break;
          }
        }
      };

      for (const auto& src : sources) {
        if (is_paced_stage(*src)) {
          if (frame == 0) {
            book_stage(std::string(src->name()) + " (paced)", stage_start, 0);
          }
          continue;  // driven by feed_paced alongside the pipeline
        }
        src->set_start(stage_start);
        HeadCache stage(*src);
        stage_last_done = stage_start;
        std::uint64_t stage_bytes = 0;
        current_stage_id = stage.done() ? 0xffff : stage.head().source;
        static const obs::prof::PhaseId kFeed = obs::prof::phase_id("sim/feed");
        static const obs::prof::PhaseId kDrain =
            obs::prof::phase_id("sim/drain");
        const bool pon = obs::prof::enabled();
        const std::int64_t t_feed0 = pon ? obs::prof::now_ns() : 0;
        while (!stage.done()) {
          feed_paced(sys.max_horizon());
          if (sys.try_submit(stage.head())) {
            stage.advance();
            stage_bytes += burst;
          } else if (auto c = sys.process_next()) {
            on_complete(*c);
          }
        }
        const std::int64_t t_drain0 = pon ? obs::prof::now_ns() : 0;
        // Stage barrier: the next stage consumes this stage's output frame.
        while (auto c = sys.process_next()) on_complete(*c);
        if (pon) {
          const std::int64_t t_end = obs::prof::now_ns();
          obs::prof::tally(kFeed, t_drain0 - t_feed0);
          obs::prof::tally(kDrain, t_end - t_drain0);
        }
        const Time last_done = stage_last_done;
        stage_start = max(stage_start, last_done);
        if (frame == 0) {
          book_stage(std::string(src->name()), stage_start, stage_bytes);
          out.bytes_first_frame += stage_bytes;
        }
      }

      out.access_accum += stage_start - frame_start;
      out.per_frame_access.push_back(stage_start - frame_start);

      // Finish any remaining paced traffic (it trickles into the idle tail),
      // still in arrival order.
      current_stage_id = 0xffff;  // every completion from here on is paced
      feed_paced(Time::max());
      while (auto c = sys.process_next()) on_complete(*c);

      // The next frame starts at the sensor cadence, or immediately when the
      // system is running behind real time.
      t = max(frame_start + period, max(stage_start, result.paced_last_done));
    }
    out.end_time = t;
  }

  const Time window = max(out.end_time, period * opt_.frames);
  {
    static const obs::prof::PhaseId kFinalize =
        obs::prof::phase_id("sim/finalize");
    obs::prof::ScopedTimer span(kFinalize);
    sys.finalize(window);
  }

  if (!spools.empty()) {
    static const obs::prof::PhaseId kMerge =
        obs::prof::phase_id("sim/trace_merge");
    obs::prof::ScopedTimer span(kMerge);
    std::vector<const obs::TraceSpool*> refs;
    refs.reserve(spools.size());
    for (const auto& s : spools) refs.push_back(&s);
    obs::merge_trace_spools(refs, trace_file);
  }

  fill_frame_result(result, out, sys, opt_.frames, window,
                    opt_.processing_margin);
  if (opt_.metrics != nullptr) sys.collect_metrics(*opt_.metrics);
  return result;
}

}  // namespace mcm::core
