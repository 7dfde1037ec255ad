#include "load/stream_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common/log.hpp"
#include "obs/prof.hpp"

namespace mcm::load {
namespace {

// Soft cap on resident cached streams, counted in encoded bytes: one 2160p30
// format is ~3.4 * 10^7 requests in ~3.5 * 10^6 runs (~30 MiB); the cap fits
// every paper figure with slack while bounding a pathological sweep over
// many distinct formats. New workloads beyond the cap are generated but not retained;
// chunk metadata shares the same cap.
constexpr std::uint64_t kMaxCachedBytes = std::uint64_t{2} << 30;

std::string make_key(const video::UseCaseParams& p, std::uint64_t alignment,
                     const LoadOptions& opt) {
  char buf[256];
  const int n = std::snprintf(
      buf, sizeof buf,
      "l%d z%.17g b%.17g a%.17g e%.17g rp%d d%ux%u@%.17g al%llu c%u bu%u mw%d",
      static_cast<int>(p.level), p.digizoom, p.stabilization_border,
      p.audio_mbps, p.encoder_ref_factor, static_cast<int>(p.ref_policy),
      p.display.width, p.display.height, p.display_refresh_hz,
      static_cast<unsigned long long>(alignment), opt.chunk_bytes,
      opt.burst_bytes, opt.motion_window_encoder ? 1 : 0);
  // Only the motion-window encoder reads the seed; every other stream is
  // the same at any seed, so points that differ only in seed share it.
  if (opt.motion_window_encoder) {
    std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n), " s%llu",
                  static_cast<unsigned long long>(opt.seed));
  }
  return buf;
}

std::string make_meta_key(const std::string& workload_key,
                          std::size_t stage_index, std::uint32_t channels,
                          std::uint32_t granularity) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "#meta s%llu c%u g%u",
                static_cast<unsigned long long>(stage_index), channels,
                granularity);
  return workload_key + buf;
}

std::shared_ptr<CachedWorkload> build_video_workload(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    const LoadOptions& opt) {
  static const obs::prof::PhaseId kBuild =
      obs::prof::phase_id("stream_cache/build");
  obs::prof::ScopedTimer span(kBuild);
  auto wl = std::make_shared<CachedWorkload>();
  wl->burst_bytes = opt.burst_bytes;
  auto sources = build_stage_sources(model, layout, opt);
  wl->stages.reserve(sources.size());
  for (auto& src : sources) {
    CachedStage stage{.name = std::string(src->name()),
                      .reqs = PackedRuns(opt.burst_bytes)};
    if (!src->done()) stage.source_id = src->head().source;
    src->append_packed(stage.reqs);
    stage.reqs.shrink_to_fit();
    wl->total_requests += stage.reqs.size();
    wl->stages.push_back(std::move(stage));
  }
  return wl;
}

}  // namespace

std::uint64_t ChunkMeta::count_in(std::uint32_t channel, std::uint64_t a,
                                  std::uint64_t b) const {
  const std::vector<std::uint32_t>& pos = pos_of[channel];
  const auto lo = std::lower_bound(pos.begin(), pos.end(),
                                   static_cast<std::uint32_t>(a));
  const auto hi = std::lower_bound(lo, pos.end(), static_cast<std::uint32_t>(b));
  return static_cast<std::uint64_t>(hi - lo);
}

std::shared_ptr<const ChunkMeta> ChunkMeta::build(const CachedStage& stage,
                                                  std::uint32_t channels,
                                                  std::uint32_t granularity) {
  static const obs::prof::PhaseId kBuild =
      obs::prof::phase_id("stream_cache/meta_build");
  obs::prof::ScopedTimer span(kBuild);
  auto meta = std::make_shared<ChunkMeta>();
  meta->channels = channels;
  meta->granularity = granularity;
  const std::size_t n = stage.reqs.size();
  meta->chan.resize(n);
  meta->pos_of.resize(channels);
  if (channels > 0) {
    for (auto& v : meta->pos_of) v.reserve(n / channels + 1);
  }
  std::size_t p = 0;
  for (const std::uint64_t packed : stage.reqs) {
    const std::uint64_t addr = CachedStage::addr_of(packed);
    const std::uint32_t c =
        static_cast<std::uint32_t>((addr / granularity) % channels);
    meta->chan[p] = static_cast<std::uint8_t>(c);
    meta->pos_of[c].push_back(static_cast<std::uint32_t>(p));
    ++p;
  }
  return meta;
}

StreamCache& StreamCache::instance() {
  static StreamCache cache;
  return cache;
}

std::shared_ptr<const CachedWorkload> StreamCache::generate(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    const LoadOptions& opt) {
  return build_video_workload(model, layout, opt);
}

void StreamCache::warn_capped_locked(const std::string& key,
                                     std::uint64_t bytes) {
  if (!capped_warned_.insert(key).second) return;
  MCM_LOG_WARN(
      "stream cache soft cap (%llu B) reached; not retaining %llu B for key "
      "'%s' (regenerated per run)",
      static_cast<unsigned long long>(kMaxCachedBytes),
      static_cast<unsigned long long>(bytes), key.c_str());
}

void StreamCache::try_retain_locked(const std::string& key,
                                    const WorkloadPtr& wl) {
  if (bytes_ + meta_bytes_ + wl->footprint_bytes() <= kMaxCachedBytes) {
    bytes_ += wl->footprint_bytes();
    map_.emplace(key, wl);
  } else {
    warn_capped_locked(key, wl->footprint_bytes());
  }
}

std::shared_ptr<const CachedWorkload> StreamCache::get(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    std::uint64_t alignment, const LoadOptions& opt) {
  return get_keyed(make_key(model.params(), alignment, opt),
                   [&] { return build_video_workload(model, layout, opt); });
}

std::shared_ptr<const CachedWorkload> StreamCache::get_keyed(
    const std::string& key,
    const std::function<std::shared_ptr<CachedWorkload>()>& build) {
  static const obs::prof::PhaseId kHit = obs::prof::phase_id("stream_cache/hit");
  static const obs::prof::PhaseId kMiss =
      obs::prof::phase_id("stream_cache/miss");
  static const obs::prof::PhaseId kWait =
      obs::prof::phase_id("stream_cache/wait");
  // Single flight: the first miss on a key registers a future and builds
  // outside the lock; later misses on the same key wait on that future
  // instead of building a second copy.
  std::promise<WorkloadPtr> promise;
  std::shared_future<WorkloadPtr> pending;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = map_.find(key); it != map_.end()) {
      obs::prof::count(kHit, 1);
      return it->second;
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      pending = it->second;
    } else {
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (pending.valid()) {
    obs::prof::count(kWait, 1);
    return pending.get();  // rethrows the builder's exception
  }
  obs::prof::count(kMiss, 1);
  WorkloadPtr frozen;
  try {
    auto wl = build();
    wl->key = key;
    frozen = std::move(wl);
  } catch (...) {
    {
      std::lock_guard lock(mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard lock(mutex_);
    try_retain_locked(key, frozen);
    inflight_.erase(key);
  }
  promise.set_value(frozen);
  return frozen;
}

std::shared_ptr<const ChunkMeta> StreamCache::chunk_meta(
    const CachedWorkload& wl, std::size_t stage_index, std::uint32_t channels,
    std::uint32_t granularity) {
  if (wl.key.empty()) {
    return ChunkMeta::build(wl.stages[stage_index], channels, granularity);
  }
  static const obs::prof::PhaseId kHit =
      obs::prof::phase_id("stream_cache/meta_hit");
  static const obs::prof::PhaseId kMiss =
      obs::prof::phase_id("stream_cache/meta_miss");
  const std::string key = make_meta_key(wl.key, stage_index, channels,
                                        granularity);
  {
    std::lock_guard lock(mutex_);
    const auto it = meta_map_.find(key);
    if (it != meta_map_.end()) {
      obs::prof::count(kHit, 1);
      return it->second;
    }
  }
  obs::prof::count(kMiss, 1);
  auto meta = ChunkMeta::build(wl.stages[stage_index], channels, granularity);
  std::lock_guard lock(mutex_);
  const auto it = meta_map_.find(key);
  if (it != meta_map_.end()) return it->second;
  if (bytes_ + meta_bytes_ + meta->footprint_bytes() <= kMaxCachedBytes) {
    meta_bytes_ += meta->footprint_bytes();
    meta_map_.emplace(key, meta);
  } else {
    warn_capped_locked(key, meta->footprint_bytes());
  }
  return meta;
}

void StreamCache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  meta_map_.clear();
  capped_warned_.clear();
  bytes_ = 0;
  meta_bytes_ = 0;
}

std::uint64_t StreamCache::cached_bytes() {
  std::lock_guard lock(mutex_);
  return bytes_ + meta_bytes_;
}

StreamCacheStats StreamCache::stats() {
  std::lock_guard lock(mutex_);
  StreamCacheStats s;
  s.stream_bytes = bytes_;
  s.meta_bytes = meta_bytes_;
  s.stream_entries = map_.size();
  s.meta_entries = meta_map_.size();
  return s;
}

}  // namespace mcm::load
