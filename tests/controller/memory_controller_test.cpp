#include "controller/memory_controller.hpp"

#include <gtest/gtest.h>

#include "command_log.hpp"
#include "dram/timing_checker.hpp"
#include "obs/trace.hpp"

namespace mcm::ctrl {
namespace {

class MemoryControllerTest : public ::testing::Test {
 protected:
  MemoryControllerTest() : spec_(dram::DeviceSpec::next_gen_mobile_ddr()) {}

  MemoryController make(Frequency f = Frequency{400.0},
                        AddressMux mux = AddressMux::kRBC) {
    return MemoryController(spec_, f, mux, cfg_);
  }

  static Request read_at(std::uint64_t addr, Time arrival = Time::zero()) {
    return Request{addr, false, arrival, 0};
  }
  static Request write_at(std::uint64_t addr, Time arrival = Time::zero()) {
    return Request{addr, true, arrival, 0};
  }

  dram::DeviceSpec spec_;
  ControllerConfig cfg_;
};

TEST_F(MemoryControllerTest, ServesSingleRead) {
  auto mc = make();
  mc.enqueue(read_at(0));
  const Completion c = mc.process_one();
  EXPECT_FALSE(c.row_hit);  // cold bank: ACT needed
  const auto& d = mc.timing();
  // ACT at t=0, RD at tRCD, data ends CL + BL/2 later.
  EXPECT_EQ(c.done, d.cycles(d.trcd + d.cl + d.burst_ck));
  EXPECT_EQ(mc.stats().reads, 1u);
  EXPECT_EQ(mc.stats().row_misses, 1u);
}

TEST_F(MemoryControllerTest, SequentialReadsHitOpenRow) {
  auto mc = make();
  for (int i = 0; i < 64; ++i) {
    mc.enqueue(read_at(static_cast<std::uint64_t>(i) * 16));
    (void)mc.process_one();
  }
  // 64 sequential bursts in one 2 KiB row: one miss, then all hits.
  EXPECT_EQ(mc.stats().row_misses, 1u);
  EXPECT_EQ(mc.stats().row_hits, 63u);
}

TEST_F(MemoryControllerTest, SequentialReadsSaturateDataBus) {
  auto mc = make();
  Time last = Time::zero();
  const int n = 512;
  for (int i = 0; i < n; ++i) {
    mc.enqueue(read_at(static_cast<std::uint64_t>(i) * 16));
    last = mc.process_one().done;
  }
  // Steady state: one burst per burst_ck cycles; allow startup + row-miss
  // slack of a few percent.
  const auto& d = mc.timing();
  const double ideal_ps = static_cast<double>(n) * d.cycles(d.burst_ck).ps();
  EXPECT_LT(static_cast<double>(last.ps()), ideal_ps * 1.10);
}

TEST_F(MemoryControllerTest, RowConflictCostsPrechargeActivate) {
  auto mc = make();
  const auto& d = mc.timing();
  // Same bank, different row (RBC: bank stride is row_bytes, so same bank is
  // banks * row_bytes apart).
  const std::uint64_t same_bank_next_row =
      static_cast<std::uint64_t>(spec_.org.row_bytes) * spec_.org.banks;
  mc.enqueue(read_at(0));
  const Completion c1 = mc.process_one();
  mc.enqueue(read_at(same_bank_next_row));
  const Completion c2 = mc.process_one();
  EXPECT_EQ(mc.stats().row_conflicts, 1u);
  // The second access pays at least tRP + tRCD beyond the first data end.
  EXPECT_GE((c2.done - c1.done).ps(), d.cycles(d.trp + d.trcd).ps());
}

TEST_F(MemoryControllerTest, CommandTracePassesIndependentChecker) {
  auto mc = make();
  obs::TraceSpool spool;
  mc.set_trace_sink(&spool, 0);
  // Mixed traffic: sequential runs, bank conflicts, read/write interleave.
  std::uint64_t a = 0;
  for (int i = 0; i < 400; ++i) {
    const bool wr = (i % 3) == 0;
    const std::uint64_t addr = (i % 7 == 0) ? a + 8ull * 1024 * 1024 : a;
    mc.enqueue(Request{addr, wr, Time::zero(), 0});
    (void)mc.process_one();
    a += 16;
  }
  mc.finalize(mc.horizon() + Time::from_us(100.0));
  dram::TimingChecker checker(spec_.org, mc.timing());
  const auto commands = test::command_log(spool);
  ASSERT_GT(commands.size(), 0u);
  const auto violations = checker.check(commands);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations.front());
}

class CheckerSweep
    : public ::testing::TestWithParam<std::tuple<double, AddressMux, PagePolicy>> {};

TEST_P(CheckerSweep, TracesLegalAcrossConfigs) {
  const auto [freq, mux, page] = GetParam();
  const dram::DeviceSpec spec = dram::DeviceSpec::next_gen_mobile_ddr();
  ControllerConfig cfg;
  cfg.page_policy = page;
  MemoryController mc(spec, Frequency{freq}, mux, cfg);
  obs::TraceSpool spool;
  mc.set_trace_sink(&spool, 0);
  std::uint64_t a = 0;
  for (int i = 0; i < 300; ++i) {
    mc.enqueue(Request{a, (i % 4) == 1, Time::zero(), 0});
    (void)mc.process_one();
    a += (i % 11 == 0) ? 64 * 1024 : 16;  // occasional jumps
  }
  mc.finalize(mc.horizon() + Time::from_us(50.0));
  dram::TimingChecker checker(spec.org, mc.timing());
  const auto commands = test::command_log(spool);
  ASSERT_GT(commands.size(), 0u);
  const auto violations = checker.check(commands);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CheckerSweep,
    ::testing::Combine(::testing::Values(200.0, 333.0, 400.0, 533.0),
                       ::testing::Values(AddressMux::kRBC, AddressMux::kBRC,
                                         AddressMux::kRCB),
                       ::testing::Values(PagePolicy::kOpen, PagePolicy::kClosed)));

TEST_F(MemoryControllerTest, ClosedPagePolicyNeverHits) {
  cfg_.page_policy = PagePolicy::kClosed;
  auto mc = make();
  for (int i = 0; i < 32; ++i) {
    mc.enqueue(read_at(static_cast<std::uint64_t>(i) * 16));
    (void)mc.process_one();
  }
  EXPECT_EQ(mc.stats().row_hits, 0u);
  EXPECT_EQ(mc.stats().row_misses, 32u);
  EXPECT_EQ(mc.stats().precharges, 32u);
}

TEST_F(MemoryControllerTest, QueueCapacityRespected) {
  auto mc = make();
  for (std::uint32_t i = 0; i < cfg_.queue_depth; ++i) {
    ASSERT_TRUE(mc.can_accept());
    mc.enqueue(read_at(i * 16ull));
  }
  EXPECT_FALSE(mc.can_accept());
  (void)mc.process_one();
  EXPECT_TRUE(mc.can_accept());
}

TEST_F(MemoryControllerTest, LatencyIncludesArrivalWait) {
  auto mc = make();
  const Time arrival = Time::from_us(3.0);
  mc.enqueue(read_at(0, arrival));
  const Completion c = mc.process_one();
  EXPECT_GE(c.first_command, arrival);
  EXPECT_GT(c.latency(), Time::zero());
}

TEST_F(MemoryControllerTest, BytesAccountedPerBurst) {
  auto mc = make();
  for (int i = 0; i < 10; ++i) {
    mc.enqueue(read_at(static_cast<std::uint64_t>(i) * 16));
    (void)mc.process_one();
  }
  EXPECT_EQ(mc.stats().bytes, 160u);
}

}  // namespace
}  // namespace mcm::ctrl
