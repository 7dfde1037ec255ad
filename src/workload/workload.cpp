#include "workload/workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/result_export.hpp"
#include "core/sharded_engine.hpp"
#include "load/trace.hpp"
#include "video/surfaces.hpp"
#include "video/usecase.hpp"
#include "workload/composer.hpp"
#include "workload/generators.hpp"
#include "workload/trace_format.hpp"

namespace mcm::workload {

namespace {

constexpr std::uint64_t round_up(std::uint64_t x, std::uint64_t align) {
  return (x + align - 1) / align * align;
}

/// A tenant's slot in the global address space.
struct TenantPlan {
  const TenantSpec* spec = nullptr;
  std::uint64_t base = 0;
  std::uint64_t span = 0;
  std::uint16_t source_id = 0;
};

/// Everything a tenant needs that involves I/O or the video load models,
/// materialized once per compile (the video stream is itself memoized).
struct TenantInput {
  std::shared_ptr<const load::CachedWorkload> video;  // kind == "video"
  std::vector<ctrl::Request> trace;                   // kind == "trace"
};

/// Partition the capacity: explicit sizes rounded up to `align`, the
/// remainder split equally among unsized tenants. Tenants are placed in spec
/// order from address zero.
std::vector<TenantPlan> plan_partitions(const WorkloadSpec& spec,
                                        std::uint64_t capacity,
                                        std::uint64_t align) {
  std::uint64_t used = 0;
  std::size_t unsized = 0;
  for (const auto& t : spec.tenants) {
    if (t.partition_bytes != 0) {
      used += round_up(t.partition_bytes, align);
    } else {
      ++unsized;
    }
  }
  if (used > capacity) {
    throw std::invalid_argument(
        "workload '" + spec.name + "': explicit partitions (" +
        std::to_string(used) + " B) exceed system capacity (" +
        std::to_string(capacity) + " B)");
  }
  std::uint64_t share = 0;
  if (unsized != 0) {
    share = (capacity - used) / unsized / align * align;
    if (share == 0) {
      throw std::invalid_argument("workload '" + spec.name +
                                  "': no capacity left for unsized tenants");
    }
  }

  std::vector<TenantPlan> plans;
  plans.reserve(spec.tenants.size());
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const auto& t = spec.tenants[i];
    TenantPlan p;
    p.spec = &t;
    p.base = base;
    p.span = t.partition_bytes != 0 ? round_up(t.partition_bytes, align) : share;
    p.source_id = static_cast<std::uint16_t>(i);
    base += p.span;
    plans.push_back(p);
  }
  return plans;
}

/// Replays a memoized packed stream (the video tenant's frame) into a
/// partition: addresses wrap modulo the partition span, requests are capped
/// at `max_requests`, and pacing spreads arrivals by index like the
/// generators do.
class PackedReplaySource final : public load::TrafficSource {
 public:
  PackedReplaySource(std::shared_ptr<const load::CachedWorkload> wl,
                     std::string name, std::uint64_t base, std::uint64_t span,
                     std::uint16_t source_id, std::uint64_t max_requests)
      : wl_(std::move(wl)), name_(std::move(name)), base_(base), span_(span),
        source_id_(source_id) {
    for (const auto& s : wl_->stages) count_ += s.reqs.size();
    if (max_requests != 0) count_ = std::min(count_, max_requests);
    if (!wl_->stages.empty()) it_ = wl_->stages.front().reqs.begin();
    skip_empty();
  }

  [[nodiscard]] bool done() const override { return emitted_ >= count_; }

  [[nodiscard]] ctrl::Request head() const override {
    const std::uint64_t packed = *it_;
    ctrl::Request r;
    r.addr = base_ + load::CachedStage::addr_of(packed) % span_;
    r.is_write = load::CachedStage::is_write_of(packed);
    r.source = source_id_;
    Time arrival = Time::zero();
    if (pace_ > Time::zero() && count_ > 1) {
      arrival = Time{static_cast<std::int64_t>(
          static_cast<__int128>(emitted_) * pace_.ps() /
          static_cast<std::int64_t>(count_ - 1))};
    }
    r.arrival = start_ + arrival;
    return r;
  }

  void advance() override {
    ++emitted_;
    ++it_;
    skip_empty();
  }

  [[nodiscard]] std::uint64_t total_bytes() const override {
    return count_ * wl_->burst_bytes;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  void set_start(Time t) override { start_ = t; }
  void set_pacing(Time duration) override { pace_ = duration; }

 private:
  void skip_empty() {
    while (stage_ < wl_->stages.size() && it_ == wl_->stages[stage_].reqs.end()) {
      if (++stage_ < wl_->stages.size()) it_ = wl_->stages[stage_].reqs.begin();
    }
  }

  std::shared_ptr<const load::CachedWorkload> wl_;
  std::string name_;
  std::uint64_t base_;
  std::uint64_t span_;
  std::uint16_t source_id_;
  std::uint64_t count_ = 0;
  std::uint64_t emitted_ = 0;
  std::size_t stage_ = 0;
  load::PackedRuns::const_iterator it_;  // next request of stages[stage_]
  Time start_ = Time::zero();
  Time pace_ = Time::zero();
};

/// Materialize the per-tenant inputs (video stream enumeration, trace file
/// reads). Kept separate from source construction so tenant stats are
/// available even when the composed stream is a cache hit.
TenantInput make_input(const TenantPlan& p, std::uint32_t burst,
                       std::uint64_t align) {
  const TenantSpec& t = *p.spec;
  TenantInput in;
  if (t.kind == "video") {
    const auto level = video::parse_level(t.level);
    if (!level) {
      throw std::invalid_argument("tenant '" + t.name + "': unknown level '" +
                                  t.level + "'");
    }
    video::UseCaseParams params;
    params.level = *level;
    const video::UseCaseModel model(params);
    const video::SurfaceLayout layout(model, align);
    load::LoadOptions opt;
    opt.burst_bytes = burst;
    opt.chunk_bytes = std::max(opt.chunk_bytes, burst);
    in.video = load::StreamCache::instance().get(model, layout, align, opt);
  } else if (t.kind == "trace") {
    std::optional<TraceFormat> format;
    if (!t.format.empty() && t.format != "auto") {
      format = parse_trace_format(t.format);
      if (!format) {
        throw std::invalid_argument("tenant '" + t.name +
                                    "': unknown trace format '" + t.format + "'");
      }
    }
    in.trace = read_trace_file(t.path, format);
  }
  return in;
}

std::uint64_t input_requests(const TenantPlan& p, const TenantInput& in,
                             std::uint32_t burst) {
  const TenantSpec& t = *p.spec;
  if (t.kind == "video") {
    std::uint64_t total = 0;
    for (const auto& s : in.video->stages) total += s.reqs.size();
    return t.max_requests != 0 ? std::min(total, t.max_requests) : total;
  }
  if (t.kind == "trace") return in.trace.size();
  return t.bytes / burst;
}

std::unique_ptr<load::TrafficSource> build_tenant_source(const TenantPlan& p,
                                                         const TenantInput& in,
                                                         std::uint32_t burst) {
  const TenantSpec& t = *p.spec;
  std::unique_ptr<load::TrafficSource> src;
  if (t.kind == "video") {
    src = std::make_unique<PackedReplaySource>(in.video, t.name, p.base, p.span,
                                               p.source_id, t.max_requests);
  } else if (t.kind == "trace") {
    std::vector<ctrl::Request> reqs = in.trace;
    for (auto& r : reqs) {
      r.addr = p.base + r.addr % p.span;
      r.source = p.source_id;
    }
    src = std::make_unique<load::TraceReplaySource>(std::move(reqs), t.name);
  } else {
    GeneratorParams gp;
    gp.name = t.name;
    gp.source_id = p.source_id;
    gp.base = p.base;
    gp.window_bytes = std::min(t.window_bytes, p.span);
    gp.bytes = t.bytes;
    gp.burst_bytes = burst;
    gp.stride_bytes = t.stride_bytes;
    gp.write_fraction = t.write_fraction;
    gp.seed = t.seed;
    src = make_generator(t.generator, std::move(gp));
    if (src == nullptr) {
      throw std::invalid_argument("tenant '" + t.name +
                                  "': unknown generator '" + t.generator + "'");
    }
  }
  if (t.pace_ps > 0) src->set_pacing(Time{t.pace_ps});
  return src;
}

MixedTenantSource compose(const WorkloadSpec& spec,
                          const std::vector<TenantPlan>& plans,
                          const std::vector<TenantInput>& inputs,
                          std::uint32_t burst) {
  std::vector<std::unique_ptr<load::TrafficSource>> sources;
  sources.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    sources.push_back(build_tenant_source(plans[i], inputs[i], burst));
  }
  return MixedTenantSource(spec.name, std::move(sources));
}

struct CompileContext {
  multichannel::SystemConfig cfg;
  std::uint32_t burst = 0;
  std::uint64_t align = 0;
  std::vector<TenantPlan> plans;
  std::vector<TenantInput> inputs;
};

CompileContext make_context(const WorkloadSpec& spec) {
  CompileContext ctx;
  ctx.cfg = spec.system_config();
  ctx.burst = ctx.cfg.device.org.bytes_per_burst();
  // Same placement rule as the video surface allocator: partitions start on
  // a whole interleave stripe so per-channel load is channel-count invariant.
  const std::uint64_t stripe =
      static_cast<std::uint64_t>(ctx.cfg.interleave_bytes) * ctx.cfg.channels;
  ctx.align = std::max<std::uint64_t>(64 * 1024, stripe);
  // Per-channel sum, not base x channels: heterogeneous classes bind
  // different die sizes (identical for homogeneous systems).
  std::uint64_t capacity = 0;
  for (std::uint32_t c = 0; c < ctx.cfg.channels; ++c) {
    capacity += ctx.cfg.channel_device(c).org.capacity_bytes();
  }
  ctx.plans = plan_partitions(spec, capacity, ctx.align);
  ctx.inputs.reserve(ctx.plans.size());
  for (const auto& p : ctx.plans) {
    ctx.inputs.push_back(make_input(p, ctx.burst, ctx.align));
  }
  return ctx;
}

}  // namespace

CompiledWorkload compile_workload(const WorkloadSpec& spec) {
  const CompileContext ctx = make_context(spec);

  CompiledWorkload out;
  out.burst_bytes = ctx.burst;
  for (std::size_t i = 0; i < ctx.plans.size(); ++i) {
    TenantStats ts;
    ts.name = ctx.plans[i].spec->name;
    ts.kind = ctx.plans[i].spec->kind;
    ts.partition_base = ctx.plans[i].base;
    ts.partition_bytes = ctx.plans[i].span;
    ts.requests = input_requests(ctx.plans[i], ctx.inputs[i], ctx.burst);
    ts.bytes = ts.requests * ctx.burst;
    out.tenants.push_back(std::move(ts));
  }

  out.frame = load::StreamCache::instance().get_keyed(
      spec.cache_key(), [&]() -> std::shared_ptr<load::CachedWorkload> {
        MixedTenantSource composed = compose(spec, ctx.plans, ctx.inputs, ctx.burst);
        auto wl = std::make_shared<load::CachedWorkload>();
        load::CachedStage stage{.name = "mixed", .source_id = 0,
                                .reqs = load::PackedRuns(ctx.burst)};
        composed.append_packed(stage.reqs);
        stage.reqs.shrink_to_fit();
        wl->total_requests = stage.reqs.size();
        wl->burst_bytes = ctx.burst;
        wl->stages.push_back(std::move(stage));
        return wl;
      });
  out.total_requests = out.frame->total_requests;
  return out;
}

WorkloadRunResult run_workload(const WorkloadSpec& spec) {
  WorkloadRunResult result;
  result.compiled = compile_workload(spec);

  multichannel::MemorySystem sys(spec.system_config());
  const std::vector<const load::CachedWorkload*> frames(
      static_cast<std::size_t>(spec.frames), result.compiled.frame.get());
  const Time period{spec.period_ps};

  const core::ShardedRunOutput out =
      core::run_sequential_frames(sys, frames, period);

  const Time window = max(out.end_time, period * spec.frames);
  sys.finalize(window);

  core::FrameSimResult& r = result.sim;
  r.frame_period = period;
  core::fill_frame_result(r, out, sys, spec.frames, window,
                          core::FrameSimOptions{}.processing_margin);
  r.demand_bandwidth_bytes_per_s =
      static_cast<double>(r.bytes_per_frame) / period.seconds();
  return result;
}

std::vector<ctrl::Request> record_workload(const WorkloadSpec& spec) {
  const CompileContext ctx = make_context(spec);
  MixedTenantSource composed = compose(spec, ctx.plans, ctx.inputs, ctx.burst);
  std::vector<ctrl::Request> out;
  while (!composed.done()) {
    out.push_back(composed.head());
    composed.advance();
  }
  return out;
}

void export_workload_report(obs::RunReport& report, const WorkloadSpec& spec,
                            const WorkloadRunResult& run) {
  auto& cfg = report.config();
  cfg["workload"] = spec.name;
  cfg["device"] = spec.device;
  cfg["channels"] = spec.channels;
  cfg["freq_mhz"] = spec.freq_mhz;
  cfg["interleave_bytes"] = spec.interleave_bytes;
  cfg["frames"] = spec.frames;
  cfg["period_ps"] = spec.period_ps;

  auto& point = report.add_point(spec.name);
  core::export_result(point, run.sim);

  auto& w = report.root()["workload"];
  w["schema"] = "mcm.workload_report/v1";
  w["burst_bytes"] = run.compiled.burst_bytes;
  w["total_requests"] = run.compiled.total_requests;
  auto& tenants = w["tenants"];
  tenants = obs::JsonValue::array();
  for (const auto& t : run.compiled.tenants) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry["name"] = t.name;
    entry["kind"] = t.kind;
    entry["partition_base"] = t.partition_base;
    entry["partition_bytes"] = t.partition_bytes;
    entry["requests"] = t.requests;
    entry["bytes"] = t.bytes;
    tenants.push(std::move(entry));
  }
}

}  // namespace mcm::workload
