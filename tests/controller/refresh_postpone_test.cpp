// Refresh postponing (burst refresh): due refreshes defer while requests
// are pending and repay during idle gaps, shaving worst-case latency.
#include <gtest/gtest.h>

#include "channel/channel.hpp"
#include "command_log.hpp"
#include "controller/memory_controller.hpp"
#include "dram/timing_checker.hpp"
#include "obs/trace.hpp"

namespace mcm::ctrl {
namespace {

class RefreshPostponeTest : public ::testing::Test {
 protected:
  RefreshPostponeTest() : spec_(dram::DeviceSpec::next_gen_mobile_ddr()) {}

  MemoryController make(std::uint32_t postpone) {
    cfg_.refresh_postpone_max = postpone;
    return MemoryController(spec_, Frequency{400.0}, AddressMux::kRBC, cfg_);
  }

  /// Stream sequential reads back to back for roughly `intervals` x tREFI.
  static void stream(MemoryController& mc, int intervals) {
    const auto& d = mc.timing();
    const Time goal = d.cycles(d.trefi * intervals);
    std::uint64_t a = 0;
    while (mc.horizon() < goal) {
      // Keep the queue non-empty so postponing is allowed.
      while (mc.can_accept()) {
        mc.enqueue(Request{a, false, Time::zero(), 0});
        a += 16;
      }
      (void)mc.process_one();
    }
    while (mc.has_pending()) (void)mc.process_one();
  }

  dram::DeviceSpec spec_;
  ControllerConfig cfg_;
};

TEST_F(RefreshPostponeTest, RefreshCountConservedOverall) {
  auto immediate = make(0);
  auto postponed = make(8);
  stream(immediate, 10);
  stream(postponed, 10);
  immediate.finalize(immediate.horizon() + Time::from_us(100.0));
  postponed.finalize(postponed.horizon() + Time::from_us(100.0));
  // Postponing shifts refreshes, it does not drop them.
  const auto ri = immediate.stats().refreshes;
  const auto rp = postponed.stats().refreshes;
  EXPECT_NEAR(static_cast<double>(rp), static_cast<double>(ri), 9.0);
  EXPECT_GE(rp, 9u);
}

TEST_F(RefreshPostponeTest, DebtRepaidInIdleGap) {
  auto mc = make(8);
  // Busy burst shorter than 8 x tREFI: all due refreshes postpone.
  const auto& d = mc.timing();
  std::uint64_t a = 0;
  while (mc.horizon() < d.cycles(d.trefi * 3)) {
    while (mc.can_accept()) {
      mc.enqueue(Request{a, false, Time::zero(), 0});
      a += 16;
    }
    (void)mc.process_one();
  }
  while (mc.has_pending()) (void)mc.process_one();  // drain the busy queue
  const auto during_busy = mc.stats().refreshes;
  // Idle gap: the debt (about 3) flushes before the next request.
  mc.enqueue(Request{a, false, mc.horizon() + Time::from_us(100.0), 0});
  (void)mc.process_one();
  EXPECT_GE(mc.stats().refreshes, during_busy + 2);
}

TEST_F(RefreshPostponeTest, PostponedTraceStillLegal) {
  auto mc = make(8);
  obs::TraceSpool spool;
  mc.set_trace_sink(&spool, 0);
  stream(mc, 5);
  mc.finalize(mc.horizon() + Time::from_us(50.0));
  dram::TimingChecker checker(spec_.org, mc.timing());
  const auto commands = test::command_log(spool);
  ASSERT_GT(commands.size(), 0u);
  const auto violations = checker.check(commands);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST_F(RefreshPostponeTest, PostponingReducesWorstCaseLatency) {
  auto run_max_latency = [&](std::uint32_t postpone) {
    auto mc = make(postpone);
    stream(mc, 6);
    return mc.stats().latency_ns().max();
  };
  // With immediate refresh, some request eats a full tRFC stall; postponed
  // mode defers that to idle time.
  EXPECT_LT(run_max_latency(8), run_max_latency(0));
}

TEST_F(RefreshPostponeTest, InterconnectIntervalThrottlesFrontEnd) {
  // Companion check for the channel front-end limit: spacing requests by
  // 4 cycles halves sequential-read throughput vs the 2-cycle data rate.
  const dram::DeviceSpec spec = dram::DeviceSpec::next_gen_mobile_ddr();
  auto run = [&](int interval) {
    channel::InterconnectSpec ic;
    ic.request_interval_cycles = interval;
    channel::Channel ch(spec, Frequency{400.0}, AddressMux::kRBC, {}, ic);
    Time last = Time::zero();
    std::uint64_t a = 0;
    for (int i = 0; i < 1024; ++i) {
      while (!ch.can_accept()) last = max(last, ch.process_one().done);
      ch.enqueue(ctrl::Request{a, false, Time::zero(), 0});
      a += 16;
    }
    while (ch.has_pending()) last = max(last, ch.process_one().done);
    return last;
  };
  const Time free_run = run(0);
  const Time throttled = run(4);
  EXPECT_NEAR(static_cast<double>(throttled.ps()) / free_run.ps(), 2.0, 0.25);
}

}  // namespace
}  // namespace mcm::ctrl
