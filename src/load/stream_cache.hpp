// Workload stream cache: the per-frame request stream of a use-case format
// is a pure function of (UseCaseParams, surface alignment, chunk and burst
// size, encoder address pattern) — plus the load seed, but only for the
// motion-window encoder, the one model that reads it. Addresses and
// ordering are channel-count and frequency invariant because surfaces are
// aligned to a whole interleave stripe and requests in the paper's
// state-machine mode all arrive at the stage start. Generating it through
// the load models costs a large share of a grid point's wall clock, so the
// cache enumerates each format once and replays the stored streams into
// every grid point that shares it (all Fig. 3 frequency points, every
// channel count of a Fig. 4 row, whatever their seeds). Concurrent misses
// on one key wait for a single build.
//
// A cached stage stores its requests as runs of contiguous bursts
// (load::PackedRuns, about one byte per request on the raster walks of the
// video stages) and replays them as packed (global byte address | is_write)
// words; stage name / source id / ordering are preserved so the frame
// simulator can reproduce its bookkeeping exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "load/packed_runs.hpp"
#include "load/usecase_sources.hpp"
#include "video/surfaces.hpp"
#include "video/usecase.hpp"

namespace mcm::load {

struct CachedStage {
  std::string name;
  std::uint16_t source_id = 0xffff;  // 0xffff = stage emitted no requests
  PackedRuns reqs;  // addr | (is_write << 63), stream order; step = burst

  static constexpr std::uint64_t kWriteBit = kPackedWriteBit;
  [[nodiscard]] static std::uint64_t pack(std::uint64_t addr, bool is_write) {
    return pack_request(addr, is_write);
  }
  [[nodiscard]] static std::uint64_t addr_of(std::uint64_t packed) {
    return packed & (kWriteBit - 1);
  }
  [[nodiscard]] static bool is_write_of(std::uint64_t packed) {
    return (packed & kWriteBit) != 0;
  }
};

struct CachedWorkload {
  std::vector<CachedStage> stages;  // Fig. 1 processing order
  std::uint32_t burst_bytes = 0;
  std::uint64_t total_requests = 0;
  // Cache key this workload was memoized under; empty when the workload was
  // generated uncached (direct generate() calls).
  // Chunk metadata derives its own key from this one, so it is invalidated
  // exactly when the stream is.
  std::string key;

  /// Heap bytes of the encoded stage streams.
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    std::uint64_t bytes = 0;
    for (const CachedStage& s : stages) bytes += s.reqs.bytes();
    return bytes;
  }
};

/// Per-stage chunk metadata: the channel of every position of the stage's
/// request stream under a given interleave (channels, granularity), plus
/// per-channel sorted position lists. Only perfbench's load.chunk_meta_ms
/// probe builds it; ROADMAP item 1 deletes it with StreamCache::chunk_meta
/// and the meta_* stats.
struct ChunkMeta {
  std::uint32_t channels = 0;
  std::uint32_t granularity = 0;
  std::vector<std::uint8_t> chan;                  // channel of each position
  std::vector<std::vector<std::uint32_t>> pos_of;  // per channel, ascending

  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return chan.size() * (sizeof(std::uint8_t) + sizeof(std::uint32_t));
  }

  /// Number of positions routed to `channel` in stream range [a, b).
  [[nodiscard]] std::uint64_t count_in(std::uint32_t channel, std::uint64_t a,
                                       std::uint64_t b) const;

  /// Route every position of `stage` under (channels, granularity).
  /// Requires channels <= 255 (the engine falls back to the sequential feed
  /// beyond that).
  [[nodiscard]] static std::shared_ptr<const ChunkMeta> build(
      const CachedStage& stage, std::uint32_t channels,
      std::uint32_t granularity);
};

/// Resident byte counters, split by kind (streams vs chunk metadata).
struct StreamCacheStats {
  std::uint64_t stream_bytes = 0;
  std::uint64_t meta_bytes = 0;
  std::uint64_t stream_entries = 0;
  std::uint64_t meta_entries = 0;
};

class StreamCache {
 public:
  /// The process-wide cache (shared across exploration grid points).
  static StreamCache& instance();

  /// Cached enumeration of one frame's stage streams. `alignment` must be
  /// the value the SurfaceLayout was built with (it is part of the key).
  std::shared_ptr<const CachedWorkload> get(const video::UseCaseModel& model,
                                            const video::SurfaceLayout& layout,
                                            std::uint64_t alignment,
                                            const LoadOptions& opt);

  /// Uncached enumeration through the real load models.
  [[nodiscard]] static std::shared_ptr<const CachedWorkload> generate(
      const video::UseCaseModel& model, const video::SurfaceLayout& layout,
      const LoadOptions& opt);

  /// Keyed memoization (get() and the non-video frontends in workload/):
  /// the cached workload for `key`, built with `build` on first use.
  /// Callers must make `key` a pure function of everything `build` depends
  /// on. Concurrent misses on one key run `build` once; the others wait for
  /// it and share its result, or its exception (the key is then forgotten,
  /// so a later call rebuilds). Honors the byte cap. The builder returns a
  /// mutable workload so the cache can stamp the key on it.
  std::shared_ptr<const CachedWorkload> get_keyed(
      const std::string& key,
      const std::function<std::shared_ptr<CachedWorkload>()>& build);

  /// Chunk metadata for one stage of `wl` under an interleave, memoized
  /// alongside the stream when the workload itself was cached (wl.key set);
  /// built fresh otherwise. Counts toward the same soft byte cap.
  std::shared_ptr<const ChunkMeta> chunk_meta(const CachedWorkload& wl,
                                              std::size_t stage_index,
                                              std::uint32_t channels,
                                              std::uint32_t granularity);

  /// Always true: the cache has no off switch. Kept only because the
  /// benchmark harness stamps it into its provenance record.
  [[nodiscard]] static constexpr bool enabled() { return true; }

  /// Drop every cached workload (tests).
  void clear();

  [[nodiscard]] std::uint64_t cached_bytes();
  [[nodiscard]] StreamCacheStats stats();

 private:
  using WorkloadPtr = std::shared_ptr<const CachedWorkload>;

  /// Retain `wl` under `key` if the soft cap allows; warns once per key when
  /// it does not. Caller holds mutex_.
  void try_retain_locked(const std::string& key, const WorkloadPtr& wl);
  void warn_capped_locked(const std::string& key, std::uint64_t bytes);

  // Workloads are immutable once built; the mutex only guards the maps.
  std::mutex mutex_;
  std::unordered_map<std::string, WorkloadPtr> map_;
  // Builds in progress, one per key; erased by the builder when it finishes.
  std::unordered_map<std::string, std::shared_future<WorkloadPtr>> inflight_;
  std::unordered_map<std::string, std::shared_ptr<const ChunkMeta>> meta_map_;
  std::unordered_set<std::string> capped_warned_;
  std::uint64_t bytes_ = 0;
  std::uint64_t meta_bytes_ = 0;
};

}  // namespace mcm::load
