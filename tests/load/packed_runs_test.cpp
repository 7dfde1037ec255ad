// PackedRuns must hand back exactly the packed words that were appended, in
// order, for any stream the flat word format can hold, and stay within one
// head word plus one length byte per request on the worst stream.
#include "load/packed_runs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace mcm::load {
namespace {

constexpr std::uint64_t kTopAddr = kPackedWriteBit - 1;  // 2^63 - 1

std::vector<std::uint64_t> words_of(const PackedRuns& runs) {
  return {runs.begin(), runs.end()};
}

/// A random stream of `pieces` segments in the shapes the load models and
/// the fuzz generators produce, appended word by word or as whole runs.
struct RandomStream {
  std::vector<std::uint64_t> words;
  PackedRuns runs;
  std::uint64_t longest = 0;  // longest contiguous piece appended

  RandomStream(Rng& rng, std::uint32_t step, int pieces) : runs(step) {
    bool is_write = rng.next_below(2) == 1;
    for (int p = 0; p < pieces; ++p) {
      if (rng.next_below(3) == 0) is_write = !is_write;  // direction flip
      // Anywhere, unaligned, or right under the top of the address space.
      std::uint64_t addr;
      switch (rng.next_below(4)) {
        case 0: addr = rng.next_below(1 << 20); break;
        case 1: addr = rng.next_u64() & kTopAddr; break;
        case 2: addr = kTopAddr - rng.next_below(4) * step; break;
        default:  // continue the previous piece when there is room
          addr = words.empty() || (words.back() & kTopAddr) > kTopAddr - step
                     ? 0
                     : (words.back() & kTopAddr) + step;
      }
      // Lengths up to four times the run cap, never past 2^63 - 1.
      std::uint64_t len = 1 + rng.next_below(4 * PackedRuns::kMaxRun);
      if (step > 0) len = std::min(len, (kTopAddr - addr) / step + 1);
      // Half the segments wrap back inside a window after `wrap` requests,
      // like a stream re-reading its reference area.
      const std::uint64_t wrap = rng.next_below(2) == 0 ? 0 : 1 + rng.next_below(len);
      const std::uint64_t window_base =
          addr >= wrap * step ? addr - wrap * step : 0;
      const bool whole_runs = rng.next_below(2) == 0;
      for (std::uint64_t i = 0; i < len;) {
        const bool wrapped = wrap != 0 && i >= wrap;
        const std::uint64_t base = wrapped ? window_base : addr;
        const std::uint64_t first = wrapped ? i - wrap : i;
        const std::uint64_t n = wrap != 0 && i < wrap ? wrap - i : len - i;
        longest = std::max(longest, n);
        const std::uint64_t head = pack_request(base + first * step, is_write);
        if (whole_runs) {
          runs.append_run(head, n);
        } else {
          for (std::uint64_t k = 0; k < n; ++k) runs.append(head + k * step);
        }
        for (std::uint64_t k = 0; k < n; ++k) words.push_back(head + k * step);
        i += n;
      }
    }
  }
};

TEST(PackedRuns, RandomStreamsIterateAndDecodeBackExactly) {
  Rng rng(2026);
  int long_runs = 0, top_words = 0, flips = 0;
  for (int c = 0; c < 300; ++c) {
    static constexpr std::uint32_t kSteps[] = {16, 32, 64, 16, 1, 0};
    const std::uint32_t step = kSteps[rng.next_below(6)];
    const RandomStream s(rng, step, 1 + static_cast<int>(rng.next_below(20)));
    ASSERT_EQ(s.runs.size(), s.words.size()) << "case " << c;
    ASSERT_EQ(words_of(s.runs), s.words) << "case " << c << " step " << step;
    // Block decoding, with blocks that end inside runs and past the end.
    std::vector<std::uint64_t> decoded, block(1 + rng.next_below(600));
    auto from = s.runs.begin();
    while (const std::size_t n = s.runs.decode(from, block)) {
      decoded.insert(decoded.end(), block.begin(),
                     block.begin() + static_cast<std::ptrdiff_t>(n));
    }
    EXPECT_TRUE(from == s.runs.end());
    ASSERT_EQ(decoded, s.words) << "case " << c << " block " << block.size();
    for (std::size_t i = 1; i < s.words.size(); ++i) {
      flips += ((s.words[i] ^ s.words[i - 1]) & kPackedWriteBit) != 0;
    }
    for (const std::uint64_t w : s.words) top_words += (w & kTopAddr) == kTopAddr;
    long_runs += s.longest > PackedRuns::kMaxRun;
  }
  // The draws reach every shape the encoding has to survive.
  EXPECT_GT(long_runs, 0);
  EXPECT_GT(top_words, 0);
  EXPECT_GT(flips, 0);
}

TEST(PackedRuns, EdgeWordsRoundTrip) {
  PackedRuns runs(16);
  const std::vector<std::uint64_t> words = {
      kTopAddr,                             // highest read
      kTopAddr | kPackedWriteBit,           // highest write
      kTopAddr - 15,                        // step back: no continuation
      0,                                    // read at 0
      kPackedWriteBit,                      // write at 0, same address
      kPackedWriteBit + 16,                 // continues the write
      kPackedWriteBit + 33,                 // unaligned jump
      kPackedWriteBit + 49,                 // continues it
      pack_request(kTopAddr - 16, false),   // a read run ending at the top
      pack_request(kTopAddr, false),
  };
  for (const std::uint64_t w : words) runs.append(w);
  EXPECT_EQ(words_of(runs), words);
  EXPECT_EQ(runs.run_count(), 7u);

  // With a one-byte step the highest read and the write at 0 are adjacent
  // integers, but not one run.
  PackedRuns bytewise(1);
  bytewise.append(kTopAddr);
  bytewise.append(kPackedWriteBit);
  EXPECT_EQ(bytewise.run_count(), 2u);
  EXPECT_EQ(words_of(bytewise),
            (std::vector<std::uint64_t>{kTopAddr, kPackedWriteBit}));
}

TEST(PackedRuns, RunsSplitAtTheLengthCap) {
  PackedRuns runs(16);
  const std::uint64_t n = 3 * PackedRuns::kMaxRun + 5;
  runs.append_run(pack_request(0x1000, true), n);
  EXPECT_EQ(runs.size(), n);
  EXPECT_EQ(runs.run_count(), 4u);
  std::uint64_t k = 0;
  for (const std::uint64_t w : runs) {
    ASSERT_EQ(w, pack_request(0x1000 + k * 16, true)) << k;
    ++k;
  }
  EXPECT_EQ(k, n);
  // A continuing append fills the last run before opening another.
  runs.append(pack_request(0x1000 + n * 16, true));
  EXPECT_EQ(runs.run_count(), 4u);
}

TEST(PackedRuns, RunHostileStreamCostsAtMostNineBytesPerRequest) {
  // Every request its own run: the direction flips on each one and the
  // address never continues.
  PackedRuns runs(16);
  constexpr std::uint64_t kN = 100'000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    runs.append(pack_request(i * 4096 + (i % 7), i % 2 == 1));
  }
  runs.shrink_to_fit();
  ASSERT_EQ(runs.run_count(), kN);
  EXPECT_LE(runs.bytes(), 9 * kN);

  // A raster walk costs a head and a length byte per kMaxRun requests.
  PackedRuns raster(16);
  raster.append_run(0, kN);
  raster.shrink_to_fit();
  EXPECT_LE(raster.bytes(), 9 * (kN / PackedRuns::kMaxRun + 1));
}

TEST(PackedRuns, EqualityComparesWords) {
  PackedRuns a(16), b(16), c(16);
  a.append_run(0x100, 40);
  for (std::uint64_t i = 0; i < 40; ++i) b.append(0x100 + i * 16);
  c.append_run(0x100, 39);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  c.append(0x100 + 39 * 16 + 1);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(PackedRuns(16) == PackedRuns(32));
}

}  // namespace
}  // namespace mcm::load
