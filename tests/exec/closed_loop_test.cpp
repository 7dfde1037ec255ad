#include "exec/closed_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace mcm::exec {
namespace {

TEST(ClosedLoop, ParseThreadCountAcceptsOnlyPositiveDecimalUnsigned) {
  const struct {
    const char* text;
    std::optional<unsigned> want;
  } cases[] = {
      {"1", 1u},
      {"4", 4u},
      {"0004", 4u},
      {"4294967295", std::numeric_limits<unsigned>::max()},
      {"0", std::nullopt},
      {"-1", std::nullopt},
      {"+4", std::nullopt},
      {"4x", std::nullopt},
      {"x4", std::nullopt},
      {" 4", std::nullopt},
      {"4 ", std::nullopt},
      {"4.0", std::nullopt},
      {"0x10", std::nullopt},
      {"abc", std::nullopt},
      {"", std::nullopt},
      {"99999999999", std::nullopt},
      {"4294967296", std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_thread_count(c.text), c.want) << "'" << c.text << "'";
  }
}

TEST(ClosedLoop, ResolveThreadsPrefersRequestThenEnvThenHardware) {
  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  ::setenv("MCM_THREADS", "6", 1);
  EXPECT_EQ(resolve_threads(2), 2u);
  EXPECT_EQ(resolve_threads(0), 6u);
  ::setenv("MCM_THREADS", "", 1);
  EXPECT_EQ(resolve_threads(0), hw);
  ::unsetenv("MCM_THREADS");
  EXPECT_EQ(resolve_threads(0), hw);
}

TEST(ClosedLoop, MalformedEnvWarnsOnceNamingTheValue) {
  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  Log::level() = LogLevel::kWarn;
  ::setenv("MCM_THREADS", "99999999999", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(resolve_threads(0), hw);
  EXPECT_EQ(resolve_threads(0), hw);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("MCM_THREADS");
  const auto first = err.find("MCM_THREADS='99999999999'");
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find("MCM_THREADS=", first + 1), std::string::npos) << err;
}

TEST(ClosedLoop, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 64u}) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      std::vector<std::atomic<int>> runs(n);
      run_indexed(n, threads, [&runs](std::size_t i) { ++runs[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "n=" << n << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ClosedLoop, WritesEveryIndexedResult) {
  std::vector<int> out(257, 0);
  run_indexed(out.size(), 3,
              [&out](std::size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 2) << "i=" << i;
  }
}

TEST(ClosedLoop, OneThreadRunsEveryIndexInOrderOnTheCaller) {
  std::vector<std::size_t> order;
  std::set<std::thread::id> ids;
  run_indexed(64, 1, [&](std::size_t i) {
    order.push_back(i);
    ids.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(ids, std::set{std::this_thread::get_id()});
}

/// Distinct thread ids that ran an item of run_indexed(n, threads).
std::set<std::thread::id> worker_ids(std::size_t n, unsigned threads) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  run_indexed(n, threads, [&](std::size_t) {
    // Long enough that a started worker gets a turn before the caller has
    // drained the cursor.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  return ids;
}

TEST(ClosedLoop, StartsAtMostOneWorkerPerItem) {
  for (const std::size_t n : {0u, 1u, 7u, 64u}) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      EXPECT_LE(worker_ids(n, threads).size(),
                std::min<std::size_t>(threads, n))
          << "n=" << n << " threads=" << threads;
    }
  }
  // A single item runs on the caller, whatever the request.
  EXPECT_EQ(worker_ids(1, 8), std::set{std::this_thread::get_id()});
  // The largest count parse_thread_count accepts is bounded by n.
  EXPECT_LE(worker_ids(3, *parse_thread_count("4294967295")).size(), 3u);
  // Zero threads means one worker: the caller.
  EXPECT_EQ(worker_ids(5, 0), std::set{std::this_thread::get_id()});
}

TEST(ClosedLoop, FirstExceptionIsRethrownAfterTheJoin) {
  std::atomic<int> running{0};
  std::atomic<int> ran{0};
  EXPECT_THROW(run_indexed(64, 4,
                           [&](std::size_t i) {
                             ++running;
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                             ++ran;
                             --running;
                             if (i == 3) throw std::runtime_error("item 3");
                           }),
               std::runtime_error);
  EXPECT_EQ(running.load(), 0) << "a worker outlived run_indexed";
  EXPECT_GE(ran.load(), 4);  // items 0-2 were handed out before item 3

  // On one worker the handout stops right after the throwing item.
  ran = 0;
  EXPECT_THROW(run_indexed(64, 1,
                           [&ran](std::size_t i) {
                             ++ran;
                             if (i == 3) throw std::runtime_error("item 3");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);

  // Nothing is left over for the next loop.
  std::vector<std::atomic<int>> runs(64);
  run_indexed(64, 4, [&runs](std::size_t i) { ++runs[i]; });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace mcm::exec
