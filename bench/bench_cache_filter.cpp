// Reproduces the Section I premise: a software H.264 encoder's raw access
// bandwidth is enormous (the paper cites 5570 GB/s for 720p30 [2]), but
// "most of the bandwidth can be supplied by the cache memory", leaving the
// GB/s-scale execution-memory load of Table I. We sample macroblocks of the
// full-search access stream through a set-associative cache and scale.
#include <cstdio>

#include "cache/cache_model.hpp"
#include "load/cached_source.hpp"
#include "load/encoder_pattern_source.hpp"
#include "multichannel/memory_system.hpp"
#include "video/encoder_access.hpp"
#include "video/h264_levels.hpp"

int main() {
  using namespace mcm;
  const std::uint32_t sample_mbs = 400;  // sampled from 3600 at 720p
  const double fps = 30.0;

  video::EncoderAccessParams p;
  p.resolution = video::k720p;
  p.ref_frames = 4;
  p.mode = video::EncoderAccessMode::kAllTouches;
  p.candidate_step = 1;  // full search: every candidate position
  p.input_base = 0;
  p.ref_base = 1ull << 24;
  p.recon_base = 1ull << 27;
  p.max_macroblocks = sample_mbs;

  std::printf("CACHE FILTER: RAW ENCODER TRAFFIC vs EXECUTION-MEMORY TRAFFIC\n");
  std::printf("(720p30, 4 reference frames, +/-16 full search, %u of %u "
              "macroblocks sampled)\n\n",
              sample_mbs, video::frame_macroblocks(video::k720p));

  const double scale = static_cast<double>(video::frame_macroblocks(video::k720p)) /
                       sample_mbs * fps;

  std::printf("%-22s %16s %18s %12s\n", "cache", "raw [GB/s]", "to memory [GB/s]",
              "reduction");
  for (const std::uint64_t kib : {64ull, 256ull, 512ull, 2048ull}) {
    video::EncoderAccessGenerator gen(p);
    cache::CacheModel cache(cache::CacheConfig{kib * 1024, 8, 64, true});
    std::uint64_t raw = 0;
    while (auto a = gen.next()) {
      cache.access(a->addr, a->bytes, a->is_write);
      raw += a->bytes;
    }
    const double raw_gbps = static_cast<double>(raw) * scale / 1e9;
    const double mem_gbps =
        static_cast<double>(cache.miss_traffic_bytes()) * scale / 1e9;
    char label[32];
    std::snprintf(label, sizeof label, "%llu KiB / 8-way",
                  static_cast<unsigned long long>(kib));
    std::printf("%-22s %16.0f %18.2f %11.0fx\n", label, raw_gbps, mem_gbps,
                raw_gbps / mem_gbps);
  }
  std::printf("\nPaper: raw software-encoder traffic is thousands of GB/s "
              "(5570 GB/s incl. all candidate evaluations [2]); the cached "
              "execution-memory load is the ~GB/s Table I level.\n");

  // Part 2: the same filter as an online component - fine-grained encoder
  // accesses pass through a live cache and only the misses reach a 2-channel
  // memory system.
  std::printf("\nONLINE: cache-filtered encoder traffic into a 2-channel "
              "400 MHz system (%u sampled MBs)\n\n",
              sample_mbs / 4);
  std::printf("%-22s %14s %16s %14s\n", "cache", "hit rate", "mem traffic [MB]",
              "busy [ms]");
  for (const std::uint64_t kib : {64ull, 512ull}) {
    video::EncoderAccessParams op = p;
    op.max_macroblocks = sample_mbs / 4;
    auto fine = std::make_unique<load::EncoderPatternSource>("enc", op,
                                                             /*burst=*/64);
    load::CachedSource cached(std::move(fine),
                              cache::CacheConfig{kib * 1024, 8, 64, true});
    multichannel::SystemConfig cfg;
    cfg.channels = 2;
    multichannel::MemorySystem sys(cfg);
    for (; !cached.done(); cached.advance()) sys.push(cached.head());
    const Time last = sys.drain();
    char label[32];
    std::snprintf(label, sizeof label, "%llu KiB / 8-way",
                  static_cast<unsigned long long>(kib));
    std::printf("%-22s %13.1f%% %16.2f %14.2f\n", label,
                100.0 * cached.cache_stats().hit_rate(),
                static_cast<double>(sys.stats().bytes) / 1e6, last.ms());
  }
  return 0;
}
