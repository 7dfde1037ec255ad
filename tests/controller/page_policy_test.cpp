// Page-policy behaviours: open (paper default), closed, and the timeout
// extension.
#include <gtest/gtest.h>

#include "command_log.hpp"
#include "controller/memory_controller.hpp"
#include "dram/timing_checker.hpp"
#include "obs/trace.hpp"

namespace mcm::ctrl {
namespace {

class PagePolicyTest : public ::testing::Test {
 protected:
  PagePolicyTest() : spec_(dram::DeviceSpec::next_gen_mobile_ddr()) {}

  MemoryController make(PagePolicy policy, std::uint32_t timeout = 512) {
    cfg_.page_policy = policy;
    cfg_.page_timeout_cycles = timeout;
    return MemoryController(spec_, Frequency{400.0}, AddressMux::kRBC, cfg_);
  }

  dram::DeviceSpec spec_;
  ControllerConfig cfg_;
};

TEST_F(PagePolicyTest, TimeoutHitsWhileRowIsWarm) {
  auto mc = make(PagePolicy::kTimeout, 512);
  for (int i = 0; i < 16; ++i) {
    mc.enqueue(Request{static_cast<std::uint64_t>(i) * 16, false, Time::zero(), 0});
    (void)mc.process_one();
  }
  // Back-to-back accesses: behaves exactly like the open-page policy.
  EXPECT_EQ(mc.stats().row_hits, 15u);
}

TEST_F(PagePolicyTest, TimeoutClosesStaleRow) {
  auto mc = make(PagePolicy::kTimeout, 512);
  mc.enqueue(Request{0, false, Time::zero(), 0});
  const Completion c1 = mc.process_one();
  // Same row, but after the 512-cycle timeout: treated as closed.
  const auto& d = mc.timing();
  mc.enqueue(Request{16, false, c1.done + d.cycles(2000), 0});
  const Completion c2 = mc.process_one();
  EXPECT_FALSE(c2.row_hit);
  EXPECT_EQ(mc.stats().row_hits, 0u);
}

TEST_F(PagePolicyTest, OpenPolicyHitsAfterLongIdle) {
  auto mc = make(PagePolicy::kOpen);
  mc.enqueue(Request{0, false, Time::zero(), 0});
  const Completion c1 = mc.process_one();
  const auto& d = mc.timing();
  // Before the first refresh, a same-row access after idle still hits.
  mc.enqueue(Request{16, false, c1.done + d.cycles(1000), 0});
  const Completion c2 = mc.process_one();
  EXPECT_TRUE(c2.row_hit);
}

TEST_F(PagePolicyTest, TimeoutTraceLegal) {
  auto mc = make(PagePolicy::kTimeout, 64);
  obs::TraceSpool spool;
  mc.set_trace_sink(&spool, 0);
  const auto& d = mc.timing();
  Time arrival = Time::zero();
  for (int i = 0; i < 60; ++i) {
    mc.enqueue(Request{static_cast<std::uint64_t>(i % 20) * 2048, (i % 5) == 0,
                       arrival, 0});
    (void)mc.process_one();
    if (i % 7 == 6) arrival += d.cycles(300);  // stale gaps
  }
  mc.finalize(mc.horizon() + Time::from_us(20.0));
  dram::TimingChecker checker(spec_.org, mc.timing());
  const auto commands = test::command_log(spool);
  ASSERT_GT(commands.size(), 0u);
  const auto violations = checker.check(commands);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST_F(PagePolicyTest, HitRateOrdering) {
  // For the streaming workload: open >= timeout >= closed.
  auto run = [&](PagePolicy p) {
    auto mc = make(p, 64);
    const auto& d = mc.timing();
    Time arrival = Time::zero();
    for (int i = 0; i < 500; ++i) {
      mc.enqueue(Request{static_cast<std::uint64_t>(i) * 16, false, arrival, 0});
      (void)mc.process_one();
      if (i % 50 == 49) arrival = mc.horizon() + d.cycles(200);
    }
    return mc.stats().row_hit_rate();
  };
  const double open = run(PagePolicy::kOpen);
  const double timeout = run(PagePolicy::kTimeout);
  const double closed = run(PagePolicy::kClosed);
  EXPECT_GE(open, timeout);
  EXPECT_GE(timeout, closed);
  EXPECT_EQ(closed, 0.0);
}

}  // namespace
}  // namespace mcm::ctrl
