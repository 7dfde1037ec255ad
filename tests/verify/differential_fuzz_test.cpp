// In-tree slice of the mcm_fuzz property: randomly generated scenarios must
// produce bit-identical observables from the production simulator and the
// golden reference model, and an injected timing bug in the reference must
// be detected. The standalone tool fuzzes far more cases; this suite keeps
// the property wired into ctest with a fixed, fast seed set.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "verify/differ.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

TEST(DifferentialFuzz, FortyRandomScenariosAgree) {
  mcm::Rng master(1);
  std::uint64_t requests = 0;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    const Scenario s = random_scenario(case_seed);
    requests += s.total_requests();
    const auto mismatch = diff_scenario(s);
    ASSERT_FALSE(mismatch.has_value())
        << "case seed 0x" << std::hex << case_seed << ": " << *mismatch;
  }
  EXPECT_GT(requests, 0u);
}

/// random_scenario draws queue depths only up to 32; this slice pins
/// FR-FCFS at depth 64 so the arbitration scan walks a deep queue on every
/// pick, at one and at four sharded workers.
TEST(DifferentialFuzz, DeepQueueScenariosAgree) {
  mcm::Rng master(64);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    Scenario s = random_scenario(case_seed);
    s.queue_depth = 64;
    s.scheduler = "FR-FCFS";
    for (const unsigned workers : {1u, 4u}) {
      s.sim_threads = workers;
      const auto mismatch = diff_scenario(s);
      ASSERT_FALSE(mismatch.has_value())
          << "case seed 0x" << std::hex << case_seed << std::dec
          << " workers=" << workers << ": " << *mismatch;
    }
  }
}

TEST(DifferentialFuzz, ScenarioGenerationIsDeterministic) {
  const Scenario a = random_scenario(0xabcdef);
  const Scenario b = random_scenario(0xabcdef);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, random_scenario(0xabcdee));
}

/// Scan seeds until the injected bug produces a divergence; every bug must
/// be caught within a small, fixed seed budget or the harness is blind.
void expect_bug_caught(InjectedBug bug) {
  mcm::Rng master(1);
  for (int i = 0; i < 50; ++i) {
    Scenario s = random_scenario(master.next_u64());
    s.inject = bug;
    if (diff_scenario(s).has_value()) return;
  }
  FAIL() << "injected bug '" << to_string(bug)
         << "' was never detected in 50 cases";
}

TEST(DifferentialFuzz, IgnoredWriteToReadTurnaroundIsCaught) {
  expect_bug_caught(InjectedBug::kIgnoreTwtr);
}

TEST(DifferentialFuzz, IgnoredTrasIsCaught) {
  expect_bug_caught(InjectedBug::kIgnoreTras);
}

TEST(DifferentialFuzz, FreePowerdownExitIsCaught) {
  expect_bug_caught(InjectedBug::kFreePowerdownExit);
}

TEST(DifferentialFuzz, OutcomeJsonExportIsStable) {
  const Scenario s = random_scenario(7);
  const Outcome prod = run_production(s);
  const obs::JsonValue a = outcome_to_json(prod);
  const obs::JsonValue b = outcome_to_json(run_production(s));
  EXPECT_EQ(a.dump_string(), b.dump_string());
}

}  // namespace
}  // namespace mcm::verify
