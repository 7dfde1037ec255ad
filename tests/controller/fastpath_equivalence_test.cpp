// Bit-identity of the row-hit streaming fast path: a controller with
// stream_row_hits on must be externally indistinguishable from one with it
// off - every completion, the horizon after every completion, all counters,
// both histograms, the energy ledger, and the full trace event sequence
// (every command edge and every request span). The
// traffic below deliberately mixes the run-friendly pattern (long
// same-row/same-direction bursts) with everything that must terminate a
// run: direction flips, row conflicts, bank jumps, future arrivals (idle
// gaps long enough for power-down and self refresh), and refresh crossings.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "controller/memory_controller.hpp"
#include "obs/trace.hpp"

namespace mcm::ctrl {
namespace {

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return s_ >> 33;
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// RBC layout used by the controller's mapper: row | bank | column.
std::uint64_t rbc_addr(const dram::DeviceSpec& spec, std::uint64_t row,
                       std::uint64_t bank, std::uint64_t col_burst) {
  return row * spec.org.row_bytes * spec.org.banks + bank * spec.org.row_bytes +
         col_burst * spec.org.bytes_per_burst();
}

// A request mix exercising every fast-path entry and exit condition.
std::vector<Request> make_traffic(const dram::DeviceSpec& spec,
                                  std::uint64_t seed, std::size_t n) {
  Lcg rng(seed);
  std::vector<Request> reqs;
  reqs.reserve(n);
  Time t = Time::zero();
  std::uint64_t row = 0;
  std::uint64_t bank = 0;
  std::uint64_t col = 0;
  bool write = false;
  while (reqs.size() < n) {
    // Start a new locality run: maybe move row/bank, maybe flip direction.
    const auto kind = rng.below(10);
    if (kind < 3) row = rng.below(64);
    if (kind < 5) bank = rng.below(spec.org.banks);
    if (rng.below(3) == 0) write = !write;
    // Occasional pacing: small gaps keep the pipe busy, large gaps trigger
    // power-down / self refresh, and huge ones cross refresh intervals.
    const auto gap = rng.below(100);
    if (gap < 60) {
      t = t + Time::from_ns(static_cast<double>(rng.below(20)));
    } else if (gap < 90) {
      t = t + Time::from_ns(static_cast<double>(rng.below(2000)));
    } else {
      t = t + Time::from_ns(static_cast<double>(rng.below(20'000'000)));
    }
    const std::size_t run = 1 + rng.below(8);
    for (std::size_t i = 0; i < run && reqs.size() < n; ++i) {
      col = (col + 1) % spec.org.bursts_per_row();
      reqs.push_back(Request{rbc_addr(spec, row, bank, col), write, t,
                             static_cast<std::uint16_t>(reqs.size() & 0xffff)});
    }
  }
  return reqs;
}

void expect_same_completion(const Completion& a, const Completion& b,
                            std::size_t i) {
  ASSERT_EQ(a.req.addr, b.req.addr) << "completion " << i;
  ASSERT_EQ(a.req.source, b.req.source) << "completion " << i;
  ASSERT_EQ(a.req.is_write, b.req.is_write) << "completion " << i;
  ASSERT_EQ(a.req.arrival.ps(), b.req.arrival.ps()) << "completion " << i;
  ASSERT_EQ(a.first_command.ps(), b.first_command.ps()) << "completion " << i;
  ASSERT_EQ(a.done.ps(), b.done.ps()) << "completion " << i;
  ASSERT_EQ(a.row_hit, b.row_hit) << "completion " << i;
}

void expect_same_histogram(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.buckets(), b.buckets());
  ASSERT_EQ(a.underflow(), b.underflow());
  ASSERT_EQ(a.overflow(), b.overflow());
  ASSERT_EQ(a.summary().count(), b.summary().count());
  // Bit-equality of the Welford state: same samples in the same order.
  ASSERT_EQ(a.summary().mean(), b.summary().mean());
  ASSERT_EQ(a.summary().variance(), b.summary().variance());
  ASSERT_EQ(a.summary().min(), b.summary().min());
  ASSERT_EQ(a.summary().max(), b.summary().max());
}

// Field by field, whatever the kind: unused fields stay at their defaults.
void expect_same_event(const obs::TraceEvent& a, const obs::TraceEvent& b,
                       std::size_t i) {
  ASSERT_EQ(a.kind, b.kind) << "event " << i;
  ASSERT_EQ(a.cmd, b.cmd) << "event " << i;
  ASSERT_EQ(a.is_write, b.is_write) << "event " << i;
  ASSERT_EQ(a.row_hit, b.row_hit) << "event " << i;
  ASSERT_EQ(a.channel, b.channel) << "event " << i;
  ASSERT_EQ(a.bank, b.bank) << "event " << i;
  ASSERT_EQ(a.row, b.row) << "event " << i;
  ASSERT_EQ(a.at.ps(), b.at.ps()) << "event " << i;
  ASSERT_EQ(a.arrival.ps(), b.arrival.ps()) << "event " << i;
  ASSERT_EQ(a.first_cmd.ps(), b.first_cmd.ps()) << "event " << i;
  ASSERT_EQ(a.done.ps(), b.done.ps()) << "event " << i;
  ASSERT_EQ(a.addr, b.addr) << "event " << i;
}

void expect_same_state(const MemoryController& fast,
                       const MemoryController& slow,
                       const obs::TraceSpool& fast_events,
                       const obs::TraceSpool& slow_events) {
  const ControllerStats& a = fast.stats();
  const ControllerStats& b = slow.stats();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.bytes, b.bytes);
  expect_same_histogram(a.latency_hist_ns, b.latency_hist_ns);
  expect_same_histogram(a.queue_depth, b.queue_depth);

  const dram::EnergyLedger& la = fast.ledger();
  const dram::EnergyLedger& lb = slow.ledger();
  EXPECT_EQ(la.n_act, lb.n_act);
  EXPECT_EQ(la.n_rd, lb.n_rd);
  EXPECT_EQ(la.n_wr, lb.n_wr);
  EXPECT_EQ(la.n_ref, lb.n_ref);
  EXPECT_EQ(la.n_powerdown_entries, lb.n_powerdown_entries);
  EXPECT_EQ(la.n_selfrefresh_entries, lb.n_selfrefresh_entries);
  EXPECT_EQ(la.t_active_standby.ps(), lb.t_active_standby.ps());
  EXPECT_EQ(la.t_precharge_standby.ps(), lb.t_precharge_standby.ps());
  EXPECT_EQ(la.t_active_powerdown.ps(), lb.t_active_powerdown.ps());
  EXPECT_EQ(la.t_powerdown.ps(), lb.t_powerdown.ps());
  EXPECT_EQ(la.t_selfrefresh.ps(), lb.t_selfrefresh.ps());

  const auto& ta = fast_events.events();
  const auto& tb = slow_events.events();
  ASSERT_GT(ta.size(), 0u);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) expect_same_event(ta[i], tb[i], i);

  EXPECT_EQ(fast.bank_accesses(), slow.bank_accesses());
}

// Drive both controllers through the same enqueue/process interleaving and
// assert lockstep equality of every externally visible artifact.
void run_equivalence(ControllerConfig cfg, std::uint64_t seed,
                     std::size_t n = 3000) {
  const dram::DeviceSpec spec = dram::DeviceSpec::next_gen_mobile_ddr();
  const Frequency freq{400.0};
  ControllerConfig on = cfg;
  on.stream_row_hits = true;
  ControllerConfig off = cfg;
  off.stream_row_hits = false;
  MemoryController fast(spec, freq, AddressMux::kRBC, on);
  MemoryController slow(spec, freq, AddressMux::kRBC, off);
  obs::TraceSpool fast_events;
  obs::TraceSpool slow_events;
  fast.set_trace_sink(&fast_events, 0);
  slow.set_trace_sink(&slow_events, 0);

  const std::vector<Request> reqs = make_traffic(spec, seed, n);
  std::size_t served = 0;
  for (const Request& r : reqs) {
    ASSERT_EQ(fast.can_accept(), slow.can_accept());
    while (!fast.can_accept()) {
      expect_same_completion(fast.process_one(), slow.process_one(), served++);
      ASSERT_EQ(fast.horizon().ps(), slow.horizon().ps());
      ASSERT_EQ(fast.can_accept(), slow.can_accept());
      ASSERT_EQ(fast.pending(), slow.pending());
    }
    fast.enqueue(r);
    slow.enqueue(r);
  }
  while (fast.has_pending()) {
    ASSERT_EQ(slow.has_pending(), true);
    expect_same_completion(fast.process_one(), slow.process_one(), served++);
    ASSERT_EQ(fast.horizon().ps(), slow.horizon().ps());
  }
  ASSERT_FALSE(slow.has_pending());
  const Time end = fast.horizon() + Time::from_ns(1e6);
  fast.finalize(end);
  slow.finalize(end);
  expect_same_state(fast, slow, fast_events, slow_events);
  EXPECT_EQ(fast.horizon().ps(), slow.horizon().ps());
}

TEST(FastPathEquivalence, FrFcfsPaperBaseline) {
  ControllerConfig cfg;  // open page, FR-FCFS, powerdown after 1 idle cycle
  cfg.queue_depth = 8;
  run_equivalence(cfg, 1);
}

TEST(FastPathEquivalence, FcfsOpenPage) {
  ControllerConfig cfg;
  cfg.scheduler = SchedulerPolicy::kFcfs;
  cfg.queue_depth = 4;
  run_equivalence(cfg, 2);
}

TEST(FastPathEquivalence, DeepQueue) {
  ControllerConfig cfg;
  cfg.queue_depth = 32;
  run_equivalence(cfg, 3);
}

TEST(FastPathEquivalence, SelfRefreshAndPostponedRefresh) {
  ControllerConfig cfg;
  cfg.queue_depth = 8;
  cfg.selfrefresh_idle_cycles = 64;
  cfg.refresh_postpone_max = 4;
  run_equivalence(cfg, 4);
}

TEST(FastPathEquivalence, PowerDownDisabled) {
  ControllerConfig cfg;
  cfg.queue_depth = 8;
  cfg.powerdown_idle_cycles = -1;
  run_equivalence(cfg, 5);
}

TEST(FastPathEquivalence, ClosedPageFastPathInert) {
  ControllerConfig cfg;
  cfg.page_policy = PagePolicy::kClosed;
  cfg.queue_depth = 8;
  run_equivalence(cfg, 6);
}

TEST(FastPathEquivalence, TimeoutPagePolicy) {
  ControllerConfig cfg;
  cfg.page_policy = PagePolicy::kTimeout;
  cfg.page_timeout_cycles = 64;
  cfg.queue_depth = 8;
  run_equivalence(cfg, 7);
}

TEST(FastPathEquivalence, ManySeeds) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    ControllerConfig cfg;
    cfg.queue_depth = 4 + (seed % 3) * 6;
    cfg.max_skips = seed % 2 == 0 ? 128 : 2;
    run_equivalence(cfg, seed, 1200);
  }
}

}  // namespace
}  // namespace mcm::ctrl
