#include <gtest/gtest.h>

#include "command_log.hpp"
#include "controller/memory_controller.hpp"
#include "dram/timing_checker.hpp"
#include "obs/trace.hpp"

namespace mcm::ctrl {
namespace {

class RefreshPowerDownTest : public ::testing::Test {
 protected:
  RefreshPowerDownTest() : spec_(dram::DeviceSpec::next_gen_mobile_ddr()) {}

  MemoryController make() {
    return MemoryController(spec_, Frequency{400.0}, AddressMux::kRBC, cfg_);
  }

  dram::DeviceSpec spec_;
  ControllerConfig cfg_;
};

TEST_F(RefreshPowerDownTest, RefreshRateTracksTrefi) {
  auto mc = make();
  // Stream sequential reads for ~10 refresh intervals of busy time.
  const auto& d = mc.timing();
  const Time goal = d.cycles(d.trefi * 10);
  std::uint64_t a = 0;
  while (mc.horizon() < goal) {
    mc.enqueue(Request{a, false, Time::zero(), 0});
    (void)mc.process_one();
    a += 16;
  }
  EXPECT_GE(mc.stats().refreshes, 9u);
  EXPECT_LE(mc.stats().refreshes, 12u);
}

TEST_F(RefreshPowerDownTest, IdleTailEntersPowerDownAndCatchesUpRefreshes) {
  auto mc = make();
  mc.enqueue(Request{0, false, Time::zero(), 0});
  (void)mc.process_one();
  const Time window = Time::from_ms(33.0);
  mc.finalize(window);
  const auto& ledger = mc.ledger();
  EXPECT_GE(ledger.n_powerdown_entries, 1u);
  // Nearly the whole window sits in (precharge) power-down.
  EXPECT_GT(ledger.t_powerdown.seconds(), window.seconds() * 0.95);
  // 33 ms / 7.8125 us = ~4224 refresh events survive the tail.
  EXPECT_GE(mc.stats().refreshes, 4000u);
  EXPECT_LE(mc.stats().refreshes, 4500u);
}

TEST_F(RefreshPowerDownTest, ResidencyCoversWholeWindow) {
  auto mc = make();
  std::uint64_t a = 0;
  for (int i = 0; i < 200; ++i) {
    mc.enqueue(Request{a, (i % 2) == 0, Time::zero(), 0});
    (void)mc.process_one();
    a += 16;
  }
  const Time window = Time::from_ms(5.0);
  mc.finalize(window);
  const auto& l = mc.ledger();
  const double covered = l.t_active_standby.seconds() +
                         l.t_precharge_standby.seconds() +
                         l.t_active_powerdown.seconds() + l.t_powerdown.seconds();
  // Total residency accounts for the full window (within 1%; refresh windows
  // are booked as precharge standby).
  EXPECT_NEAR(covered, window.seconds(), window.seconds() * 0.01);
}

TEST_F(RefreshPowerDownTest, PowerDownDisabledKeepsStandby) {
  cfg_.powerdown_idle_cycles = -1;
  auto mc = make();
  mc.enqueue(Request{0, false, Time::zero(), 0});
  (void)mc.process_one();
  mc.finalize(Time::from_ms(1.0));
  EXPECT_EQ(mc.ledger().n_powerdown_entries, 0u);
  EXPECT_EQ(mc.ledger().t_powerdown, Time::zero());
  EXPECT_GT(mc.ledger().t_precharge_standby, Time::zero());
}

TEST_F(RefreshPowerDownTest, GapBetweenRequestsUsesPowerDown) {
  auto mc = make();
  mc.enqueue(Request{0, false, Time::zero(), 0});
  (void)mc.process_one();
  // Next request arrives 1 ms later: the controller powers down in between
  // and pays tXP on wake.
  mc.enqueue(Request{16, false, Time::from_ms(1.0), 0});
  const Completion c = mc.process_one();
  EXPECT_GE(mc.ledger().n_powerdown_entries, 1u);
  const auto& d = mc.timing();
  EXPECT_GE(c.first_command, Time::from_ms(1.0) + d.cycles(d.txp));
}

TEST_F(RefreshPowerDownTest, TraceWithIdleGapsPassesChecker) {
  auto mc = make();
  obs::TraceSpool spool;
  mc.set_trace_sink(&spool, 0);
  Time arrival = Time::zero();
  std::uint64_t a = 0;
  for (int i = 0; i < 50; ++i) {
    mc.enqueue(Request{a, (i % 3) == 0, arrival, 0});
    (void)mc.process_one();
    a += 16;
    if (i % 10 == 9) arrival += Time::from_us(50.0);  // idle gaps
  }
  mc.finalize(arrival + Time::from_us(200.0));
  dram::TimingChecker checker(spec_.org, mc.timing());
  const auto commands = test::command_log(spool);
  ASSERT_GT(commands.size(), 0u);
  const auto violations = checker.check(commands);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations.front());
}

TEST_F(RefreshPowerDownTest, ShortGapStaysInStandby) {
  cfg_.powerdown_idle_cycles = 100;  // lazy governor
  auto mc = make();
  mc.enqueue(Request{0, false, Time::zero(), 0});
  const Completion c1 = mc.process_one();
  // 50-cycle gap: below the threshold, no power-down.
  const auto& d = mc.timing();
  mc.enqueue(Request{16, false, c1.done + d.cycles(50), 0});
  (void)mc.process_one();
  EXPECT_EQ(mc.ledger().n_powerdown_entries, 0u);
}

}  // namespace
}  // namespace mcm::ctrl
