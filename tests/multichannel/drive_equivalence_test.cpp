// The drive API's equivalence claim (memory_system.hpp): push()/drain()
// produce byte for byte what the (horizon, channel) heap loop
// `while (!try_submit(r)) process_next()` produces, also when every request
// carries its own, uneven arrival. Seeded random TrafficSources are fed both
// ways; stats, every channel's controller counters and histograms, energy
// ledgers, per-bank counts, route counts and per-channel traces must agree.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "load/trace.hpp"
#include "multichannel/memory_system.hpp"
#include "obs/trace.hpp"

namespace mcm::multichannel {
namespace {

/// One stage of random traffic: sequential runs (row hits), channel-heavy
/// strides (one queue fills while the others idle) and random jumps, with
/// per-request arrivals that bunch, spread out and now and then step back.
std::vector<ctrl::Request> random_stage(Rng& rng, std::uint64_t capacity,
                                        std::uint32_t channels,
                                        std::uint16_t source) {
  const std::size_t n = 50 + rng.next_below(400);
  std::vector<ctrl::Request> reqs;
  reqs.reserve(n);
  std::uint64_t addr = rng.next_below(capacity) & ~15ull;
  std::uint64_t step = 16;
  std::int64_t arrival_ps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 8) {
      addr = rng.next_below(capacity) & ~15ull;  // random jump
    } else if (pick < 14) {
      const std::uint64_t steps[] = {16, 16ull * channels, 64, 8192};
      step = steps[rng.next_below(4)];
    }
    addr = (addr + step) % capacity;
    const std::uint64_t gap = rng.next_below(100);
    if (gap < 50) {
      // same arrival as the previous request
    } else if (gap < 85) {
      arrival_ps += static_cast<std::int64_t>(rng.next_below(20'000));
    } else if (gap < 95) {
      arrival_ps += static_cast<std::int64_t>(rng.next_below(2'000'000));
    } else {
      arrival_ps = std::max<std::int64_t>(
          0, arrival_ps - static_cast<std::int64_t>(rng.next_below(500'000)));
    }
    reqs.push_back(ctrl::Request{addr, rng.next_below(3) == 0,
                                 Time{arrival_ps}, source});
  }
  return reqs;
}

struct Run {
  std::unique_ptr<MemorySystem> sys;
  std::vector<obs::TraceSpool> spools;
  std::vector<Time> stage_done;
};

using Stages = std::vector<std::vector<ctrl::Request>>;

/// Feed the stages (barrier between them) with `heap` = the try_submit /
/// process_next loop, else push()/drain(); finalize at `window`.
Run feed(const SystemConfig& cfg, const Stages& stages, bool heap, Time window) {
  Run run;
  run.sys = std::make_unique<MemorySystem>(cfg);
  MemorySystem& sys = *run.sys;
  run.spools.resize(sys.channel_count());
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    sys.attach_trace(&run.spools[c], c);
  }
  Time stage_start = Time::zero();
  for (const auto& reqs : stages) {
    load::TraceReplaySource src(reqs);
    src.set_start(stage_start);
    Time last = stage_start;
    if (heap) {
      while (!src.done()) {
        if (sys.try_submit(src.head())) {
          src.advance();
        } else if (auto c = sys.process_next()) {
          last = max(last, c->done);
        }
      }
      while (auto c = sys.process_next()) last = max(last, c->done);
    } else {
      for (; !src.done(); src.advance()) sys.push(src.head());
      last = max(last, sys.drain());
    }
    stage_start = last;
    run.stage_done.push_back(last);
  }
  sys.finalize(max(window, stage_start));
  return run;
}

void expect_same(const Accumulator& a, const Accumulator& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

void expect_same(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.buckets(), b.buckets());
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  expect_same(a.summary(), b.summary());
}

void expect_same(const ctrl::ControllerStats& a, const ctrl::ControllerStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.bytes, b.bytes);
  expect_same(a.latency_hist_ns, b.latency_hist_ns);
  expect_same(a.queue_depth, b.queue_depth);
}

void expect_same(const dram::EnergyLedger& a, const dram::EnergyLedger& b) {
  EXPECT_EQ(a.n_act, b.n_act);
  EXPECT_EQ(a.n_rd, b.n_rd);
  EXPECT_EQ(a.n_wr, b.n_wr);
  EXPECT_EQ(a.n_ref, b.n_ref);
  EXPECT_EQ(a.n_powerdown_entries, b.n_powerdown_entries);
  EXPECT_EQ(a.n_selfrefresh_entries, b.n_selfrefresh_entries);
  EXPECT_EQ(a.t_active_standby, b.t_active_standby);
  EXPECT_EQ(a.t_precharge_standby, b.t_precharge_standby);
  EXPECT_EQ(a.t_active_powerdown, b.t_active_powerdown);
  EXPECT_EQ(a.t_powerdown, b.t_powerdown);
  EXPECT_EQ(a.t_selfrefresh, b.t_selfrefresh);
}

void expect_same(const std::vector<obs::TraceEvent>& a,
                 const std::vector<obs::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].cmd, b[i].cmd);
    EXPECT_EQ(a[i].is_write, b[i].is_write);
    EXPECT_EQ(a[i].row_hit, b[i].row_hit);
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_EQ(a[i].bank, b[i].bank);
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].first_cmd, b[i].first_cmd);
    EXPECT_EQ(a[i].done, b[i].done);
    EXPECT_EQ(a[i].addr, b[i].addr);
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
}

void expect_same(const Run& heap, const Run& fed) {
  EXPECT_EQ(heap.stage_done, fed.stage_done);
  const SystemStats a = heap.sys->stats();
  const SystemStats b = fed.sys->stats();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.powerdown_entries, b.powerdown_entries);
  EXPECT_EQ(a.selfrefresh_entries, b.selfrefresh_entries);
  expect_same(a.latency_ns, b.latency_ns);
  expect_same(a.latency_hist_ns, b.latency_hist_ns);
  EXPECT_EQ(heap.sys->route_counts(), fed.sys->route_counts());
  ASSERT_EQ(a.per_channel.size(), b.per_channel.size());
  for (std::uint32_t c = 0; c < heap.sys->channel_count(); ++c) {
    SCOPED_TRACE("channel " + std::to_string(c));
    const auto& ha = heap.sys->channel(c).controller();
    const auto& fa = fed.sys->channel(c).controller();
    expect_same(a.per_channel[c], b.per_channel[c]);
    expect_same(ha.ledger(), fa.ledger());
    EXPECT_EQ(ha.bank_accesses(), fa.bank_accesses());
    expect_same(heap.spools[c].events(), fed.spools[c].events());
  }
}

TEST(DriveEquivalence, PushDrainMatchesHeapLoopWithUnevenArrivals) {
  std::uint64_t seed = 1;
  for (const auto scheduler :
       {ctrl::SchedulerPolicy::kFcfs, ctrl::SchedulerPolicy::kFrFcfs}) {
    for (const auto page : {ctrl::PagePolicy::kOpen, ctrl::PagePolicy::kClosed}) {
      for (const std::uint32_t depth : {1u, 4u, 16u, 64u}) {
        for (const std::uint32_t channels : {1u, 2u, 3u, 4u, 8u}) {
          SystemConfig cfg;
          cfg.channels = channels;
          cfg.controller.scheduler = scheduler;
          cfg.controller.page_policy = page;
          cfg.controller.queue_depth = depth;
          Rng rng(++seed);
          const std::uint64_t capacity = MemorySystem(cfg).capacity_bytes();
          Stages stages(1 + rng.next_below(4));
          for (std::size_t s = 0; s < stages.size(); ++s) {
            stages[s] = random_stage(rng, capacity, channels,
                                     static_cast<std::uint16_t>(s));
          }
          SCOPED_TRACE(std::string(ctrl::to_string(scheduler)) + " " +
                       std::string(ctrl::to_string(page)) + " depth " +
                       std::to_string(depth) +
                       " channels " + std::to_string(channels) + " seed " +
                       std::to_string(seed));
          const Time window = Time::from_ms(20.0);
          expect_same(feed(cfg, stages, /*heap=*/true, window),
                      feed(cfg, stages, /*heap=*/false, window));
          if (HasFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcm::multichannel
