// `mcm.repro/v1` round-trip and replay tests, including the shrunken repro
// committed under tests/verify/repros/ (produced by
// `mcm_fuzz --inject ignore-tras`): loading it must reproduce the
// divergence, and stripping the injected bug must restore agreement.
#include <gtest/gtest.h>

#include <string>

#include "verify/differ.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

TEST(Repro, JsonRoundTripIsExact) {
  const Scenario s = random_scenario(0x12345);
  const obs::JsonValue doc = scenario_to_json(s);
  std::string error;
  const auto loaded = scenario_from_json(doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, s);
}

TEST(Repro, JsonRoundTripSurvivesSerializedText) {
  Scenario s = random_scenario(99);
  s.inject = InjectedBug::kIgnoreTwtr;
  const std::string text = scenario_to_json(s).dump_string();
  std::string error;
  const auto doc = obs::json_parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto loaded = scenario_from_json(*doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, s);
}

TEST(Repro, SaveAndLoadFile) {
  const Scenario s = random_scenario(4242);
  const std::string path = testing::TempDir() + "mcm_repro_roundtrip.json";
  ASSERT_TRUE(save_scenario(s, path));
  std::string error;
  const auto loaded = load_scenario(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, s);
}

TEST(Repro, RejectsWrongSchema) {
  std::string error;
  const auto doc = obs::json_parse(R"({"schema": "mcm.repro/v2"})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(scenario_from_json(*doc, &error).has_value());
  EXPECT_FALSE(error.empty());
}

// Every bad system value is an error naming the field: values that used to
// wrap through a narrowing cast (a depth of 2^32 + 16 ran as 16) or fail
// only when the scenario ran.
TEST(Repro, BadConfigsNameTheField) {
  const auto load_with = [](auto mutate) {
    obs::JsonValue doc = scenario_to_json(random_scenario(0x12345));
    mutate(doc);
    std::string error;
    const bool ok = scenario_from_json(doc, &error).has_value();
    return std::pair{ok, error};
  };
  const struct {
    const char* field;
    void (*mutate)(obs::JsonValue&);
  } cases[] = {
      {"queue_depth",
       [](obs::JsonValue& d) { d["controller"]["queue_depth"] = std::uint64_t{4294967312}; }},
      {"controller.queue_depth",
       [](obs::JsonValue& d) { d["controller"]["queue_depth"] = 0; }},
      {"queue_depth", [](obs::JsonValue& d) { d["controller"]["queue_depth"] = -1; }},
      {"channels", [](obs::JsonValue& d) { d["channels"] = std::uint64_t{4294967297}; }},
      {"channels", [](obs::JsonValue& d) { d["channels"] = 0; }},
      {"freq", [](obs::JsonValue& d) { d["freq_mhz"] = 900; }},
      {"interleave_bytes", [](obs::JsonValue& d) { d["interleave_bytes"] = 4; }},
      {"powerdown_idle_cycles",
       [](obs::JsonValue& d) { d["controller"]["powerdown_idle_cycles"] = std::int64_t{1} << 40; }},
      {"channel_classes",
       [](obs::JsonValue& d) {
         d["channel_classes"] = obs::JsonValue::array();
         d["channel_classes"].push("fast_edram");
         d["channels"] = 2;
       }},
      {"mux", [](obs::JsonValue& d) { d["mux"] = "RBX"; }},
      {"scheduler", [](obs::JsonValue& d) { d["controller"]["scheduler"] = "bogus"; }},
      {"page policy", [](obs::JsonValue& d) { d["controller"]["page_policy"] = "half"; }},
      {"device", [](obs::JsonValue& d) { d["device"] = "hbm9"; }},
  };
  for (const auto& c : cases) {
    const auto [ok, error] = load_with(c.mutate);
    EXPECT_FALSE(ok) << c.field;
    EXPECT_NE(error.find(c.field), std::string::npos) << c.field << ": " << error;
  }
}

TEST(Repro, NamesParseInAnyCase) {
  obs::JsonValue doc = scenario_to_json(random_scenario(7));
  doc["mux"] = "rbc-xor";
  doc["controller"]["scheduler"] = "frfcfs";
  doc["controller"]["page_policy"] = "Timeout";
  std::string error;
  const auto loaded = scenario_from_json(doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const auto cfg = loaded->system_config();
  EXPECT_EQ(cfg.mux, ctrl::AddressMux::kRBCXor);
  EXPECT_EQ(cfg.controller.scheduler, ctrl::SchedulerPolicy::kFrFcfs);
  EXPECT_EQ(cfg.controller.page_policy, ctrl::PagePolicy::kTimeout);
}

TEST(Repro, CommittedIgnoreTrasReproStillDiverges) {
  std::string error;
  const auto loaded =
      load_scenario(std::string(MCM_VERIFY_REPRO_DIR) + "/ignore_tras.json",
                    &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->inject, InjectedBug::kIgnoreTras);
  EXPECT_LE(loaded->total_requests(), 10u) << "repro is no longer minimal";

  // With the injected bug the reference diverges from production...
  EXPECT_TRUE(diff_scenario(*loaded).has_value());

  // ...and with the bug stripped the same scenario agrees, proving the
  // divergence is the injected bug and not the scenario itself.
  Scenario fixed = *loaded;
  fixed.inject = InjectedBug::kNone;
  const auto mismatch = diff_scenario(fixed);
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
}

}  // namespace
}  // namespace mcm::verify
