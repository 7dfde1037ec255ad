// The workload stream cache must be a transparent memoization layer: the
// cached enumeration replays exactly what the live load models emit, keys
// distinguish every parameter that changes the stream (and nothing else, so
// points that differ only in seed share one stream), concurrent misses on
// one key build once.
#include "load/stream_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "video/surfaces.hpp"
#include "video/usecase.hpp"

namespace mcm::load {
namespace {

constexpr std::uint64_t kAlign = 64 * 1024;

video::UseCaseParams params(video::H264Level level = video::H264Level::k31) {
  video::UseCaseParams p;
  p.level = level;
  return p;
}

struct Format {
  video::UseCaseModel model;
  video::SurfaceLayout layout;

  explicit Format(const video::UseCaseParams& p)
      : model(p), layout(model, kAlign) {}
};

/// Walks fresh live sources for `f` under `opt` and checks every request of
/// the cached enumeration against head()/advance().
void expect_matches_live(const Format& f, const LoadOptions& opt) {
  const auto cached = StreamCache::generate(f.model, f.layout, opt);

  auto sources = build_stage_sources(f.model, f.layout, opt);
  ASSERT_EQ(cached->stages.size(), sources.size());

  std::uint64_t total = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const CachedStage& stage = cached->stages[s];
    TrafficSource& src = *sources[s];
    EXPECT_EQ(stage.name, src.name());
    src.set_start(Time::zero());
    std::size_t i = 0;
    auto it = stage.reqs.begin();
    while (!src.done()) {
      const ctrl::Request r = src.head();
      src.advance();
      ASSERT_LT(i, stage.reqs.size()) << stage.name;
      ASSERT_EQ(CachedStage::addr_of(*it), r.addr)
          << stage.name << " position " << i;
      ASSERT_EQ(CachedStage::is_write_of(*it), r.is_write)
          << stage.name << " position " << i;
      ++it;
      if (i == 0) {
        EXPECT_EQ(stage.source_id, r.source);
      }
      ++i;
    }
    EXPECT_EQ(i, stage.reqs.size()) << stage.name;
    EXPECT_TRUE(it == stage.reqs.end()) << stage.name;
    total += i;
  }
  EXPECT_EQ(cached->total_requests, total);
  EXPECT_EQ(cached->burst_bytes, opt.burst_bytes);
}

TEST(StreamCache, CachedMatchesLiveEnumeration) {
  // 720p30 and 1080p30; the motion-window encoder stage goes through the
  // default (per-request) append_packed, every other stage through
  // MultiStreamSource's bulk one.
  LoadOptions motion_window;
  motion_window.motion_window_encoder = true;
  motion_window.seed = 7;
  for (const auto& [level, opt] :
       {std::pair{video::H264Level::k31, LoadOptions{}},
        std::pair{video::H264Level::k40, LoadOptions{}},
        std::pair{video::H264Level::k31, motion_window}}) {
    SCOPED_TRACE(testing::Message()
                 << "level " << static_cast<int>(level) << " motion window "
                 << opt.motion_window_encoder);
    expect_matches_live(Format(params(level)), opt);
  }
}

TEST(StreamCache, GetMemoizesPerKey) {
  auto& cache = StreamCache::instance();
  cache.clear();
  const Format f(params());
  LoadOptions opt;

  const auto a = cache.get(f.model, f.layout, kAlign, opt);
  const auto b = cache.get(f.model, f.layout, kAlign, opt);
  EXPECT_EQ(a.get(), b.get()) << "same key must hit";
  EXPECT_EQ(cache.cached_bytes(), a->footprint_bytes());

  // The seed shapes nothing without the motion-window encoder: a point
  // with another seed shares the stream.
  LoadOptions seeded = opt;
  seeded.seed = 42;
  const auto c = cache.get(f.model, f.layout, kAlign, seeded);
  EXPECT_EQ(a.get(), c.get()) << "seed alone must not form a new key";
  EXPECT_EQ(cache.stats().stream_entries, 1u);

  // With the motion-window encoder the seed is part of the key.
  LoadOptions mw1 = opt;
  mw1.motion_window_encoder = true;
  LoadOptions mw42 = mw1;
  mw42.seed = 42;
  const auto m1 = cache.get(f.model, f.layout, kAlign, mw1);
  const auto m42 = cache.get(f.model, f.layout, kAlign, mw42);
  EXPECT_NE(a.get(), m1.get());
  EXPECT_NE(m1.get(), m42.get());
  bool words_differ = false;
  ASSERT_EQ(m1->stages.size(), m42->stages.size());
  for (std::size_t s = 0; s < m1->stages.size(); ++s) {
    words_differ |= m1->stages[s].reqs != m42->stages[s].reqs;
  }
  EXPECT_TRUE(words_differ) << "motion-window streams at seeds 1 and 42";
  EXPECT_EQ(cache.stats().stream_entries, 3u);

  // Any other stream-shaping parameter forms a new key.
  const Format heavier(params(video::H264Level::k40));
  const auto d = cache.get(heavier.model, heavier.layout, kAlign, opt);
  EXPECT_NE(a.get(), d.get());
  EXPECT_GT(d->total_requests, a->total_requests);

  cache.clear();
  EXPECT_EQ(cache.cached_bytes(), 0u);
}

TEST(StreamCache, SeedOnlyShapesMotionWindowStreams) {
  const Format f(params());
  LoadOptions s1;
  s1.seed = 1;
  LoadOptions s2;
  s2.seed = 0x9e3779b97f4a7c15ull;
  const auto a = StreamCache::generate(f.model, f.layout, s1);
  const auto b = StreamCache::generate(f.model, f.layout, s2);
  ASSERT_EQ(a->stages.size(), b->stages.size());
  for (std::size_t s = 0; s < a->stages.size(); ++s) {
    EXPECT_EQ(a->stages[s].name, b->stages[s].name);
    EXPECT_EQ(a->stages[s].source_id, b->stages[s].source_id);
    EXPECT_EQ(a->stages[s].reqs, b->stages[s].reqs) << a->stages[s].name;
  }
  EXPECT_EQ(a->total_requests, b->total_requests);
}

/// A small keyed workload: one stage of `n` sequential reads.
std::shared_ptr<CachedWorkload> tiny_workload(std::uint64_t n) {
  auto wl = std::make_shared<CachedWorkload>();
  wl->burst_bytes = 16;
  CachedStage stage{.name = "tiny", .source_id = 0, .reqs = PackedRuns(16)};
  for (std::uint64_t i = 0; i < n; ++i) stage.reqs.append(i * 16);
  wl->total_requests = n;
  wl->stages.push_back(std::move(stage));
  return wl;
}

TEST(StreamCache, ConcurrentMissBuildsOnce) {
  auto& cache = StreamCache::instance();
  cache.clear();
  constexpr int kThreads = 4;

  // A slow builder: every thread misses while it runs, and all of them get
  // its one result.
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const CachedWorkload>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t] = cache.get_keyed("concurrent-ok", [&] {
          builds.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          return tiny_workload(64);
        });
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(builds.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t].get(), got[0].get());
  }
  EXPECT_EQ(got[0]->key, "concurrent-ok");
  EXPECT_EQ(cache.stats().stream_entries, 1u);

  // A throwing builder: every caller sees the exception and nothing is
  // retained, so a later call rebuilds.
  std::atomic<int> failed_builds{0};
  std::atomic<int> caught{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        try {
          (void)cache.get_keyed(
              "concurrent-throw", [&]() -> std::shared_ptr<CachedWorkload> {
                failed_builds.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
                throw std::runtime_error("build failed");
              });
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "build failed");
          caught.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(caught.load(), kThreads);
  EXPECT_GE(failed_builds.load(), 1);
  EXPECT_EQ(cache.stats().stream_entries, 1u) << "a failed build is not kept";

  int rebuilds = 0;
  const auto rebuilt = cache.get_keyed("concurrent-throw", [&] {
    ++rebuilds;
    return tiny_workload(8);
  });
  EXPECT_EQ(rebuilds, 1);
  EXPECT_EQ(rebuilt->total_requests, 8u);
  EXPECT_EQ(cache.stats().stream_entries, 2u);
  cache.clear();
}

TEST(StreamCache, CapAndStatsCountEncodedBytes) {
  auto& cache = StreamCache::instance();
  cache.clear();

  // A real format: the stats report the runs' heap bytes, well under the
  // 8 bytes per request of a flat word array.
  const Format f(params());
  const auto wl = cache.get(f.model, f.layout, kAlign, LoadOptions{});
  std::uint64_t encoded = 0;
  for (const CachedStage& st : wl->stages) encoded += st.reqs.bytes();
  EXPECT_EQ(wl->footprint_bytes(), encoded);
  EXPECT_EQ(cache.stats().stream_bytes, encoded);
  EXPECT_LT(encoded, wl->total_requests * 2) << "raster streams compress";

  // 2^29 sequential requests would be 4 GiB as flat words, twice the soft
  // cap; encoded they are a few MiB, so the cache retains them.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 29;
  const auto huge = cache.get_keyed("huge-raster", [] {
    auto w = std::make_shared<CachedWorkload>();
    w->burst_bytes = 16;
    CachedStage stage{.name = "raster", .source_id = 0, .reqs = PackedRuns(16)};
    stage.reqs.append_run(0, kHuge);
    stage.reqs.shrink_to_fit();
    w->total_requests = kHuge;
    w->stages.push_back(std::move(stage));
    return w;
  });
  EXPECT_LT(huge->footprint_bytes(), kHuge);
  const StreamCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stream_entries, 2u) << "retained under the cap";
  EXPECT_EQ(stats.stream_bytes, encoded + huge->footprint_bytes());
  EXPECT_EQ(cache.cached_bytes(), stats.stream_bytes);
  cache.clear();
}

TEST(StreamCache, ChunkMetaRoutesEveryPosition) {
  CachedStage stage{.name = "meta", .source_id = 1, .reqs = PackedRuns(16)};
  std::vector<std::uint64_t> words;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    words.push_back(CachedStage::pack(i * 48, i % 2 == 0));
    stage.reqs.append(words.back());
  }
  const std::uint32_t channels = 4, granularity = 128;
  const auto meta = ChunkMeta::build(stage, channels, granularity);
  ASSERT_EQ(meta->chan.size(), stage.reqs.size());
  std::uint64_t listed = 0;
  for (std::uint32_t c = 0; c < channels; ++c) {
    listed += meta->pos_of[c].size();
    for (std::size_t i = 0; i < meta->pos_of[c].size(); ++i) {
      EXPECT_EQ(meta->chan[meta->pos_of[c][i]], c);
      if (i > 0) {
        EXPECT_LT(meta->pos_of[c][i - 1], meta->pos_of[c][i]);
      }
    }
  }
  EXPECT_EQ(listed, stage.reqs.size());
  for (std::size_t p = 0; p < words.size(); ++p) {
    const std::uint64_t addr = CachedStage::addr_of(words[p]);
    EXPECT_EQ(meta->chan[p], (addr / granularity) % channels);
  }
  // count_in must agree with a direct scan on arbitrary sub-ranges.
  for (std::uint32_t c = 0; c < channels; ++c) {
    for (const auto& [a, b] :
         {std::pair<std::uint64_t, std::uint64_t>{0, 1000},
          {0, 1},
          {17, 401},
          {999, 1000},
          {500, 500}}) {
      std::uint64_t expect = 0;
      for (std::uint64_t p = a; p < b; ++p) expect += meta->chan[p] == c;
      EXPECT_EQ(meta->count_in(c, a, b), expect)
          << "c=" << c << " [" << a << "," << b << ")";
    }
  }
}

TEST(StreamCache, ChunkMetaMemoizedAndCounted) {
  auto& cache = StreamCache::instance();
  cache.clear();
  const Format f(params());
  LoadOptions opt;

  const auto wl = cache.get(f.model, f.layout, kAlign, opt);
  ASSERT_FALSE(wl->key.empty());
  const StreamCacheStats before = cache.stats();
  EXPECT_EQ(before.meta_entries, 0u);
  EXPECT_EQ(before.meta_bytes, 0u);

  const auto m1 = cache.chunk_meta(*wl, 0, 4, 128);
  const auto m2 = cache.chunk_meta(*wl, 0, 4, 128);
  EXPECT_EQ(m1.get(), m2.get()) << "same (key, stage, interleave) must hit";

  // A different interleave (or stage) is a different meta entry.
  const auto m3 = cache.chunk_meta(*wl, 0, 2, 128);
  EXPECT_NE(m1.get(), m3.get());

  const StreamCacheStats after = cache.stats();
  EXPECT_EQ(after.meta_entries, 2u);
  EXPECT_EQ(after.meta_bytes,
            m1->footprint_bytes() + m3->footprint_bytes());
  EXPECT_EQ(after.stream_bytes, wl->footprint_bytes());
  EXPECT_EQ(cache.cached_bytes(), after.stream_bytes + after.meta_bytes);

  // Uncached workloads (no key) still get correct metadata, just unretained.
  const auto loose = StreamCache::generate(f.model, f.layout, opt);
  EXPECT_TRUE(loose->key.empty());
  const auto m4 = cache.chunk_meta(*loose, 0, 4, 128);
  EXPECT_EQ(m4->chan, m1->chan);
  EXPECT_EQ(cache.stats().meta_entries, 2u) << "keyless meta is not retained";

  cache.clear();
  const StreamCacheStats cleared = cache.stats();
  EXPECT_EQ(cleared.stream_bytes + cleared.meta_bytes, 0u);
  EXPECT_EQ(cleared.stream_entries + cleared.meta_entries, 0u);
}

}  // namespace
}  // namespace mcm::load
