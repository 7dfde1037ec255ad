// Mutation testing for the protocol checker: take a legal trace produced by
// the controller, break it in targeted ways, and require the independent
// checker to notice. Guards against the checker silently passing everything.
#include <gtest/gtest.h>

#include "command_log.hpp"
#include "controller/memory_controller.hpp"
#include "dram/timing_checker.hpp"
#include "obs/trace.hpp"

namespace mcm::dram {
namespace {

class CheckerMutation : public ::testing::Test {
 protected:
  CheckerMutation() : spec_(DeviceSpec::next_gen_mobile_ddr()) {}

  /// A known-legal mixed trace from the real controller.
  std::vector<CommandRecord> legal_trace() {
    ctrl::MemoryController mc(spec_, Frequency{400.0}, ctrl::AddressMux::kRBC,
                              ctrl::ControllerConfig{});
    obs::TraceSpool spool;
    mc.set_trace_sink(&spool, 0);
    std::uint64_t a = 0;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t addr = (i % 9 == 0) ? a + 8ull * 1024 * 1024 : a;
      mc.enqueue(ctrl::Request{addr, (i % 3) == 0, Time::zero(), 0});
      (void)mc.process_one();
      a += 16;
    }
    mc.finalize(mc.horizon() + Time::from_us(20.0));
    std::vector<CommandRecord> trace = test::command_log(spool);
    EXPECT_GT(trace.size(), 0u);
    return trace;
  }

  TimingChecker checker() {
    return TimingChecker(spec_.org,
                         DerivedTiming::derive(spec_.timing, Frequency{400.0}));
  }

  DeviceSpec spec_;
};

TEST_F(CheckerMutation, BaselineIsLegal) {
  EXPECT_TRUE(checker().check(legal_trace()).empty());
}

TEST_F(CheckerMutation, OffEdgeCommandDetected) {
  auto trace = legal_trace();
  trace[trace.size() / 2].at += Time{1};  // 1 ps off the clock edge
  const auto v = checker().check(trace);
  ASSERT_FALSE(v.empty());
}

TEST_F(CheckerMutation, SameEdgeCollisionDetected) {
  auto trace = legal_trace();
  // Put a command on its predecessor's edge (skip power-down pairs, which
  // have their own rules).
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].cmd == Command::kPowerDownExit ||
        trace[i].cmd == Command::kPowerDownEnter ||
        trace[i - 1].cmd == Command::kPowerDownEnter) {
      continue;
    }
    trace[i].at = trace[i - 1].at;
    break;
  }
  EXPECT_FALSE(checker().check(trace).empty());
}

TEST_F(CheckerMutation, RemovedActivateDetected) {
  auto trace = legal_trace();
  // Remove an ACT that is directly followed by a column command on the same
  // bank: that command now targets a closed row.
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    if (trace[i].cmd != Command::kActivate) continue;
    if ((trace[i + 1].cmd == Command::kRead || trace[i + 1].cmd == Command::kWrite) &&
        trace[i + 1].bank == trace[i].bank) {
      trace.erase(trace.begin() + static_cast<std::ptrdiff_t>(i));
      const auto v = checker().check(trace);
      ASSERT_FALSE(v.empty());
      return;
    }
  }
  FAIL() << "no ACT->CAS pair found in the trace";
}

TEST_F(CheckerMutation, DuplicatedPrechargeDetected) {
  auto trace = legal_trace();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].cmd != Command::kPrecharge) continue;
    // Re-issue the same PRE a little later: bank is already closed.
    CommandRecord dup = trace[i];
    dup.at += Time::from_ns(500.0);
    // Insert keeping time order.
    std::size_t j = i + 1;
    while (j < trace.size() && trace[j].at < dup.at) ++j;
    trace.insert(trace.begin() + static_cast<std::ptrdiff_t>(j), dup);
    const auto v = checker().check(trace);
    ASSERT_FALSE(v.empty());
    return;
  }
  FAIL() << "no PRE found in the trace";
}

TEST_F(CheckerMutation, ShrunkRowCycleDetected) {
  auto trace = legal_trace();
  // Pull the second ACT of some bank forward to within tRC of the first.
  const auto d = DerivedTiming::derive(spec_.timing, Frequency{400.0});
  Time first_act[8];
  bool seen[8] = {};
  for (auto& c : trace) {
    if (c.cmd != Command::kActivate) continue;
    if (!seen[c.bank]) {
      seen[c.bank] = true;
      first_act[c.bank] = c.at;
    } else {
      c.at = first_act[c.bank] + d.cycles(1);  // deep inside tRC
      const auto v = checker().check(trace);
      ASSERT_FALSE(v.empty());
      return;
    }
  }
  FAIL() << "no bank saw two activates";
}

}  // namespace
}  // namespace mcm::dram
