#include "load/multi_stream_source.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace mcm::load {
namespace {

TEST(MultiStream, SingleStreamSequential) {
  MultiStreamSource src("s", {{0x1000, 64, 0, false, 3}});
  std::uint64_t expect = 0x1000;
  int n = 0;
  while (!src.done()) {
    const ctrl::Request r = src.head();
    EXPECT_EQ(r.addr, expect);
    EXPECT_FALSE(r.is_write);
    EXPECT_EQ(r.source, 3);
    src.advance();
    expect += 16;
    ++n;
  }
  EXPECT_EQ(n, 4);
  EXPECT_EQ(src.total_bytes(), 64u);
}

TEST(MultiStream, VolumesRoundUpToBurst) {
  MultiStreamSource src("s", {{0, 50, 0, true, 0}});
  EXPECT_EQ(src.total_bytes(), 64u);  // 50 -> 64
}

TEST(MultiStream, CopyInterleavesAtChunks) {
  // 128 B read stream + 128 B write stream, 64 B chunks: R R R R W W W W ...
  MultiStreamSource src("copy", {{0, 128, 0, false, 0}, {0x10000, 128, 0, true, 1}},
                        /*chunk=*/64);
  std::vector<bool> pattern;
  while (!src.done()) {
    pattern.push_back(src.head().is_write);
    src.advance();
  }
  const std::vector<bool> expect = {false, false, false, false, true, true,
                                    true,  true,  false, false, false, false,
                                    true,  true,  true,  true};
  EXPECT_EQ(pattern, expect);
}

TEST(MultiStream, ProportionalForUnequalVolumes) {
  // Read 4x the write volume: reads should lead roughly 4:1 throughout.
  MultiStreamSource src("enc", {{0, 4096, 0, false, 0}, {0x10000, 1024, 0, true, 1}},
                        64);
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t half_reads = 0, half_writes = 0;
  const std::uint64_t total = (4096 + 1024) / 16;
  std::uint64_t i = 0;
  while (!src.done()) {
    if (src.head().is_write) {
      ++writes;
    } else {
      ++reads;
    }
    ++i;
    if (i == total / 2) {
      half_reads = reads;
      half_writes = writes;
    }
    src.advance();
  }
  EXPECT_EQ(reads, 256u);
  EXPECT_EQ(writes, 64u);
  // Half way through, both streams are near half done.
  EXPECT_NEAR(static_cast<double>(half_reads) / 256.0, 0.5, 0.1);
  EXPECT_NEAR(static_cast<double>(half_writes) / 64.0, 0.5, 0.1);
}

TEST(MultiStream, WindowWrapsForMultiPassStreams) {
  // 256 B volume over a 64 B window: addresses cycle 4 times.
  MultiStreamSource src("wrap", {{0x2000, 256, 64, false, 0}});
  std::map<std::uint64_t, int> hits;
  while (!src.done()) {
    ++hits[src.head().addr];
    src.advance();
  }
  EXPECT_EQ(hits.size(), 4u);
  for (const auto& [addr, count] : hits) {
    EXPECT_GE(addr, 0x2000u);
    EXPECT_LT(addr, 0x2040u);
    EXPECT_EQ(count, 4);
  }
}

TEST(MultiStream, EmptyStreamsAreDropped) {
  MultiStreamSource src("e", {{0, 0, 0, false, 0}, {64, 32, 0, true, 1}});
  EXPECT_EQ(src.total_bytes(), 32u);
  EXPECT_FALSE(src.done());
  EXPECT_TRUE(src.head().is_write);
}

TEST(MultiStream, AllEmptyIsDone) {
  MultiStreamSource src("none", {});
  EXPECT_TRUE(src.done());
  EXPECT_EQ(src.total_bytes(), 0u);
}

TEST(MultiStream, StartTimeStampsArrivals) {
  MultiStreamSource src("t", {{0, 64, 0, false, 0}});
  src.set_start(Time::from_ms(5.0));
  EXPECT_EQ(src.head().arrival, Time::from_ms(5.0));
}

TEST(MultiStream, PacingSpreadsArrivals) {
  MultiStreamSource src("p", {{0, 160, 0, false, 0}});
  src.set_start(Time::zero());
  src.set_pacing(Time::from_ms(1.0));
  Time prev = Time{-1};
  while (!src.done()) {
    const Time a = src.head().arrival;
    EXPECT_GE(a, prev);
    EXPECT_LE(a, Time::from_ms(1.0));
    prev = a;
    src.advance();
  }
  EXPECT_GT(prev, Time::from_ms(0.5));  // last arrival near the end
}

/// Drains `src` through head()/advance(), packed like append_packed().
std::vector<std::uint64_t> drain_one_by_one(TrafficSource& src) {
  std::vector<std::uint64_t> out;
  while (!src.done()) {
    const ctrl::Request r = src.head();
    src.advance();
    out.push_back(pack_request(r.addr, r.is_write));
  }
  return out;
}

TEST(MultiStreamSource, AppendPackedMatchesHeadAdvance) {
  Rng rng(20);
  int small_windows = 0, ragged_volumes = 0, ragged_chunks = 0, empties = 0;
  for (int c = 0; c < 400; ++c) {
    const std::uint32_t burst = 16u << rng.next_below(3);        // 16..64
    const auto chunk = static_cast<std::uint32_t>(1 + rng.next_below(300));
    ragged_chunks += chunk % burst != 0;
    std::vector<StreamSpec> specs(1 + rng.next_below(5));
    for (auto& sp : specs) {
      sp.base = rng.next_below(std::uint64_t{1} << 30) * 16;
      sp.bytes = rng.next_below(6) == 0 ? 0 : 1 + rng.next_below(5000);
      sp.window = rng.next_below(2) == 0 ? 0 : 1 + rng.next_below(sp.bytes + 1);
      sp.is_write = rng.next_below(2) == 1;
      sp.source_id = static_cast<std::uint16_t>(rng.next_below(8));
      empties += sp.bytes == 0;
      small_windows += sp.window != 0 && sp.window < sp.bytes;
      ragged_volumes += sp.bytes % chunk != 0;
    }
    const MultiStreamSource proto("p", specs, chunk, burst);
    const std::uint64_t n = proto.total_bytes() / burst;
    // From the start, and after a random number of single advances (which
    // usually leaves the source mid-chunk).
    for (const std::uint64_t skip : {std::uint64_t{0}, n == 0 ? 0 : rng.next_below(n)}) {
      MultiStreamSource live = proto;
      MultiStreamSource bulk = proto;
      for (std::uint64_t i = 0; i < skip; ++i) {
        live.advance();
        bulk.advance();
      }
      PackedRuns runs(burst);
      runs.append(0xdead);  // appends after what is there
      bulk.append_packed(runs);
      EXPECT_TRUE(bulk.done());
      std::vector<std::uint64_t> got(runs.begin(), runs.end());
      ASSERT_EQ(got.front(), 0xdeadu);
      got.erase(got.begin());
      ASSERT_EQ(got, drain_one_by_one(live)) << "case " << c << " skip " << skip;
      EXPECT_EQ(got.size(), n - skip);
      EXPECT_EQ(runs.size(), n - skip + 1);
    }
  }
  // The draws reach every shape the bulk loop special-cases.
  EXPECT_GT(small_windows, 0);
  EXPECT_GT(ragged_volumes, 0);
  EXPECT_GT(ragged_chunks, 0);
  EXPECT_GT(empties, 0);
}

}  // namespace
}  // namespace mcm::load
