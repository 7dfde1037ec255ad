// Differential certification of heterogeneous channel clusters: scenarios
// drawing random per-channel device classes (all-fast, all-slow, mixed,
// vault-grouped) must agree between the production engine and the golden
// reference model on every observable. The CI hetero-smoke job runs the
// full 500-case sweep via `mcm_fuzz --classes`; this in-tree slice keeps
// the property under plain ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "dram/device_class.hpp"
#include "verify/differ.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

TEST(HeteroDifferential, RandomClassAssignmentsAgree) {
  mcm::Rng master(20260808);
  std::set<std::string> shapes_seen;
  for (int i = 0; i < 120; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    const Scenario s =
        random_scenario(case_seed, /*workload_generators=*/false,
                        /*hetero_classes=*/true);
    if (s.channel_classes.empty()) {
      shapes_seen.insert("homogeneous");
    } else if (s.vault_group >= 2) {
      shapes_seen.insert("vault");
    } else {
      shapes_seen.insert("classes");
    }
    const auto mismatch = diff_scenario(s);
    ASSERT_FALSE(mismatch.has_value())
        << "case seed 0x" << std::hex << case_seed << std::dec << ": "
        << *mismatch;
  }
  // The sampler must actually exercise all three shape families.
  EXPECT_EQ(shapes_seen.size(), 3u);
}

TEST(HeteroDifferential, HandWrittenMixedVaultScenarioAgrees) {
  // One fully pinned case covering every class plus vault grouping, so a
  // regression here is replayable without the sampler.
  Scenario s = random_scenario(42);
  s.channels = 4;
  s.channel_classes = {"fast_edram", "slow_pcm", "mobile_ddr", "fast_edram"};
  s.vault_group = 2;
  const auto mismatch = diff_scenario(s);
  ASSERT_FALSE(mismatch.has_value()) << *mismatch;
}

TEST(HeteroDifferential, ScenarioJsonRoundTripsClasses) {
  Scenario s = random_scenario(7, false, true);
  s.channels = 2;
  s.channel_classes = {"slow_pcm", "fast_edram"};
  s.vault_group = 2;
  std::string error;
  const auto back = scenario_from_json(scenario_to_json(s), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, s);
}

TEST(HeteroDifferential, LegacyJsonStaysByteIdentical) {
  // A class-free scenario must serialize without the new keys, so committed
  // legacy repros do not churn.
  const Scenario s = random_scenario(9);
  ASSERT_TRUE(s.channel_classes.empty());
  const std::string dump = scenario_to_json(s).dump_string();
  EXPECT_EQ(dump.find("channel_classes"), std::string::npos);
  EXPECT_EQ(dump.find("vault_group"), std::string::npos);
}

TEST(HeteroDifferential, UnknownClassNameRejected) {
  Scenario s = random_scenario(11);
  s.channel_classes.assign(s.channels, "hbm3");
  EXPECT_THROW(s.system_config(), std::invalid_argument);

  obs::JsonValue doc = scenario_to_json(random_scenario(11));
  obs::JsonValue& classes = doc["channel_classes"];
  classes = obs::JsonValue::array();
  classes.push(obs::JsonValue{std::string("hbm3")});
  std::string error;
  EXPECT_FALSE(scenario_from_json(doc, &error).has_value());
  EXPECT_NE(error.find("unknown device class"), std::string::npos);
}

TEST(HeteroDifferential, GeneratorAndClassFlagsCompose) {
  // Both sampler extensions on at once; a handful of cases must agree.
  mcm::Rng master(55);
  for (int i = 0; i < 20; ++i) {
    const Scenario s = random_scenario(master.next_u64(), true, true);
    const auto mismatch = diff_scenario(s);
    ASSERT_FALSE(mismatch.has_value()) << *mismatch;
  }
}

TEST(HeteroDifferential, FlagDoesNotPerturbPlainScenarios) {
  // hetero_classes draws happen after every legacy field, so the flag's
  // existence cannot change what random_scenario(seed) returns.
  for (const std::uint64_t seed : {1ull, 99ull, 0xabcdefull}) {
    const Scenario plain = random_scenario(seed);
    Scenario hetero = random_scenario(seed, false, true);
    hetero.channel_classes.clear();
    hetero.vault_group = 0;
    EXPECT_EQ(plain, hetero);
  }
}

}  // namespace
}  // namespace mcm::verify
