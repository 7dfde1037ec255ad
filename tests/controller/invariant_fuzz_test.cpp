// Randomized invariant fuzzing of the memory controller: random policy
// combinations driven by random arrival processes must always preserve the
// global invariants - every request served exactly once, counters
// consistent, residency covering the whole window, and a protocol-legal
// command trace.
#include <gtest/gtest.h>

#include "command_log.hpp"
#include "common/rng.hpp"
#include "controller/memory_controller.hpp"
#include "dram/energy.hpp"
#include "dram/timing_checker.hpp"
#include "obs/trace.hpp"

namespace mcm::ctrl {
namespace {

class InvariantFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantFuzz, ControllerPreservesInvariants) {
  Rng rng(GetParam());

  // Random configuration.
  ControllerConfig cfg;
  cfg.page_policy = static_cast<PagePolicy>(rng.next_below(3));
  cfg.page_timeout_cycles = 32 + static_cast<std::uint32_t>(rng.next_below(512));
  cfg.scheduler = rng.next_below(2) == 0 ? SchedulerPolicy::kFcfs
                                         : SchedulerPolicy::kFrFcfs;
  cfg.queue_depth = 2 + static_cast<std::uint32_t>(rng.next_below(30));
  cfg.powerdown_idle_cycles = rng.next_below(4) == 0 ? -1
                                                     : static_cast<int>(rng.next_below(64));
  cfg.selfrefresh_idle_cycles =
      rng.next_below(3) == 0 ? static_cast<int>(64 + rng.next_below(256)) : -1;
  cfg.refresh_postpone_max = static_cast<std::uint32_t>(rng.next_below(9));
  const double freq = 200.0 + 333.0 * rng.next_double();
  const auto mux = static_cast<AddressMux>(rng.next_below(4));

  const auto spec = dram::DeviceSpec::next_gen_mobile_ddr();
  MemoryController mc(spec, Frequency{freq}, mux, cfg);
  obs::TraceSpool spool;
  mc.set_trace_sink(&spool, 0);

  // Random arrival process: bursty sequential runs with random jumps and
  // idle gaps of wildly different lengths.
  const int total = 600;
  int submitted = 0, completed = 0;
  std::uint64_t addr = rng.next_below(spec.org.capacity_bytes() / 16) * 16;
  Time arrival = Time::zero();
  std::uint64_t reads = 0, writes = 0;
  while (completed < total) {
    while (submitted < total && mc.can_accept()) {
      const bool wr = rng.next_below(3) == 0;
      mc.enqueue(Request{addr, wr, arrival, 0});
      (wr ? writes : reads) += 1;
      ++submitted;
      // Next address: mostly sequential, sometimes a jump.
      if (rng.next_below(16) == 0) {
        addr = rng.next_below(spec.org.capacity_bytes() / 16) * 16;
      } else {
        addr = (addr + 16) % spec.org.capacity_bytes();
      }
      // Arrival process: back-to-back, short stall, or a long idle gap.
      switch (rng.next_below(12)) {
        case 0: arrival += Time::from_us(1.0 + 50.0 * rng.next_double()); break;
        case 1: arrival += Time::from_ns(100.0 * rng.next_double()); break;
        default: break;
      }
    }
    const Completion c = mc.process_one();
    ++completed;
    // Served exactly in the address space and after its arrival.
    EXPECT_GE(c.done, c.req.arrival);
    EXPECT_GE(c.first_command, Time::zero());
  }

  const Time end = mc.horizon() + Time::from_us(200.0 * rng.next_double());
  mc.finalize(end);

  // Counter consistency.
  const auto& st = mc.stats();
  EXPECT_EQ(st.reads, reads);
  EXPECT_EQ(st.writes, writes);
  EXPECT_EQ(st.bytes, static_cast<std::uint64_t>(total) * 16);
  EXPECT_EQ(st.row_hits + st.row_misses + st.row_conflicts,
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(st.activates, st.row_misses + st.row_conflicts);
  EXPECT_EQ(st.latency_ns().count(), static_cast<std::uint64_t>(total));

  // Residency covers the whole window (within 1%: refresh windows are
  // booked as precharge standby and wake ramps as standby).
  const auto& l = mc.ledger();
  const double covered = l.t_active_standby.seconds() +
                         l.t_precharge_standby.seconds() +
                         l.t_active_powerdown.seconds() +
                         l.t_powerdown.seconds() + l.t_selfrefresh.seconds();
  EXPECT_NEAR(covered, end.seconds(), end.seconds() * 0.01 + 1e-7);

  // Energy tally is finite and positive.
  const dram::EnergyModel model(spec.power, mc.timing());
  const double pj = model.tally(l).total_pj();
  EXPECT_GT(pj, 0.0);
  EXPECT_TRUE(std::isfinite(pj));

  // The full command trace obeys the DRAM protocol.
  dram::TimingChecker checker(spec.org, mc.timing());
  const auto commands = test::command_log(spool);
  ASSERT_GT(commands.size(), 0u);
  const auto violations = checker.check(commands);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations.front())
      << " [policy=" << std::string(to_string(cfg.page_policy))
      << " mux=" << std::string(to_string(mux)) << " freq=" << freq
      << " q=" << cfg.queue_depth << " pd=" << cfg.powerdown_idle_cycles
      << " sr=" << cfg.selfrefresh_idle_cycles
      << " refpp=" << cfg.refresh_postpone_max << "]";
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace mcm::ctrl
