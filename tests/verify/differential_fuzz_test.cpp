// In-tree slice of the mcm_fuzz property: randomly generated scenarios must
// produce bit-identical observables from the production simulator and the
// golden reference model, and an injected timing bug in the reference must
// be detected. The standalone tool fuzzes far more cases; this suite keeps
// the property wired into ctest with a fixed, fast seed set.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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
/// pick.
TEST(DifferentialFuzz, DeepQueueScenariosAgree) {
  mcm::Rng master(64);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    Scenario s = random_scenario(case_seed);
    s.queue_depth = 64;
    s.scheduler = "FR-FCFS";
    const auto mismatch = diff_scenario(s);
    ASSERT_FALSE(mismatch.has_value())
        << "case seed 0x" << std::hex << case_seed << ": " << *mismatch;
  }
}

/// The same seeded scenarios with the queue depth forced above the drawn
/// range: to 64, policy_sweep's depth, and to 80, deeper still and not a
/// power of two. Scheduler and page policy stay as drawn, so FCFS and
/// closed-page controllers also run deep queues. Overriding after the draw
/// leaves random_scenario's sequence, and every seed, unchanged.
TEST(DifferentialFuzz, DrawnScenariosAgreeAtQueueDepths64And80) {
  mcm::Rng master(1);
  int deeper_differs = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    Scenario s = random_scenario(case_seed);
    std::string outcome_at[2];
    for (const std::uint32_t depth : {64u, 80u}) {
      s.queue_depth = depth;
      const auto mismatch = diff_scenario(s);
      ASSERT_FALSE(mismatch.has_value())
          << "case seed 0x" << std::hex << case_seed << std::dec
          << " queue_depth=" << depth << ": " << *mismatch;
      outcome_at[depth == 80u] = outcome_to_json(run_production(s)).dump_string();
    }
    deeper_differs += outcome_at[0] != outcome_at[1];
  }
  // Queues do hold more than 64 requests: depth 80 changes some outcomes.
  EXPECT_GT(deeper_differs, 0);
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
