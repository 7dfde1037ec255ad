#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "controller/address_mapping.hpp"
#include "controller/policies.hpp"
#include "dram/device_class.hpp"
#include "dram/spec.hpp"
#include "video/h264_levels.hpp"

namespace mcm {
namespace {

TEST(Config, ParsesKeyValues) {
  const Config c = Config::from_string("a = 1\nb= hello\n# comment\nc =2.5 # trailing\n");
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_EQ(c.get_string("b", ""), "hello");
  EXPECT_DOUBLE_EQ(c.get_double("c", 0.0), 2.5);
}

TEST(Config, Defaults) {
  const Config c = Config::from_string("");
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_EQ(c.get_string("missing", "d"), "d");
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_FALSE(c.has("missing"));
}

TEST(Config, Booleans) {
  const Config c = Config::from_string("t1=true\nt2=1\nt3=yes\nf1=false\nf2=off\n");
  EXPECT_TRUE(c.get_bool("t1", false));
  EXPECT_TRUE(c.get_bool("t2", false));
  EXPECT_TRUE(c.get_bool("t3", false));
  EXPECT_FALSE(c.get_bool("f1", true));
  EXPECT_FALSE(c.get_bool("f2", true));
}

TEST(Config, LaterKeysOverride) {
  const Config c = Config::from_string("k=1\nk=2\n");
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::from_string("no equals sign"), ConfigError);
  EXPECT_THROW(Config::from_string("= value"), ConfigError);
}

TEST(Config, TypeErrorsThrow) {
  const Config c = Config::from_string("k = notanint\nb = maybe\n");
  EXPECT_THROW((void)c.get_int("k", 0), ConfigError);
  EXPECT_THROW((void)c.get_double("k", 0.0), ConfigError);
  EXPECT_THROW((void)c.get_bool("b", false), ConfigError);
}

TEST(Config, HexIntegers) {
  const Config c = Config::from_string("addr = 0x10\n");
  EXPECT_EQ(c.get_int("addr", 0), 16);
}

TEST(Config, IntegersNarrowWithoutWrapping) {
  const Config c = Config::from_string(
      "neg = -1\nbig = 4294967312\nok = 16\nint_max = 2147483647\n");
  EXPECT_EQ(c.get_int<std::uint32_t>("ok", 0), 16u);
  EXPECT_EQ(c.get_int("neg", 0), -1);
  EXPECT_EQ(c.get_int<int>("int_max", 0), 2147483647);
  EXPECT_THROW((void)c.get_int<std::uint32_t>("neg", 0), ConfigError);
  EXPECT_THROW((void)c.get_int<std::uint32_t>("big", 0), ConfigError);
  EXPECT_EQ(c.get_int("big", 0), 4294967312);

  EXPECT_EQ(parse_int<std::uint32_t>("0x10"), 16u);
  EXPECT_EQ(parse_int<int>("-3"), -3);
  EXPECT_FALSE(parse_int<std::uint32_t>("4x").has_value());
  EXPECT_FALSE(parse_int<std::uint32_t>("-1").has_value());
  EXPECT_FALSE(parse_int<std::uint32_t>("").has_value());
  EXPECT_FALSE(parse_int<std::int64_t>("99999999999999999999").has_value());
}

// Every value of every config vocabulary parses back from its name.
TEST(Vocabulary, EveryValueRoundTripsThroughItsParser) {
  for (const auto p : dram::kAllDevicePresets) {
    EXPECT_EQ(dram::parse_device_preset(to_string(p)), p);
  }
  for (const auto cls : {dram::DeviceClass::kMobileDdr, dram::DeviceClass::kFastEdram,
                         dram::DeviceClass::kSlowPcm}) {
    EXPECT_EQ(dram::parse_device_class(to_string(cls)), cls);
  }
  for (const auto m : ctrl::kAllAddressMuxes) {
    EXPECT_EQ(ctrl::parse_address_mux(to_string(m)), m);
  }
  for (const auto p : ctrl::kAllPagePolicies) {
    EXPECT_EQ(ctrl::parse_page_policy(to_string(p)), p);
  }
  for (const auto s : ctrl::kAllSchedulers) {
    EXPECT_EQ(ctrl::parse_scheduler(to_string(s)), s);
  }
  for (const auto l : video::kAllLevels) {
    EXPECT_EQ(video::parse_level(video::level_spec(l).name), l);
  }
}

// The spellings the per-front-end parsers accepted before they were merged
// (explore spec: any case plus "frfcfs" and "4.0"; repro and workload: the
// exact names; memory_explorer: lowercase "fcfs"/"frfcfs"). Committed specs
// and repros use them, so each must keep parsing to the same value.
TEST(Vocabulary, EverySpellingAcceptedBeforeStillParses) {
  using ctrl::AddressMux;
  using ctrl::PagePolicy;
  using ctrl::SchedulerPolicy;
  for (const auto& [name, mux] :
       {std::pair{"RBC", AddressMux::kRBC}, {"BRC", AddressMux::kBRC},
        {"RCB", AddressMux::kRCB}, {"RBC-XOR", AddressMux::kRBCXor},
        {"rbc", AddressMux::kRBC}, {"rbc-xor", AddressMux::kRBCXor},
        {"Brc", AddressMux::kBRC}}) {
    EXPECT_EQ(ctrl::parse_address_mux(name), mux) << name;
  }
  for (const auto& [name, policy] :
       {std::pair{"open", PagePolicy::kOpen}, {"closed", PagePolicy::kClosed},
        {"timeout", PagePolicy::kTimeout}, {"OPEN", PagePolicy::kOpen},
        {"Closed", PagePolicy::kClosed}, {"TimeOut", PagePolicy::kTimeout}}) {
    EXPECT_EQ(ctrl::parse_page_policy(name), policy) << name;
  }
  for (const auto& [name, sched] :
       {std::pair{"FCFS", SchedulerPolicy::kFcfs}, {"fcfs", SchedulerPolicy::kFcfs},
        {"FR-FCFS", SchedulerPolicy::kFrFcfs}, {"fr-fcfs", SchedulerPolicy::kFrFcfs},
        {"frfcfs", SchedulerPolicy::kFrFcfs}, {"FRFCFS", SchedulerPolicy::kFrFcfs}}) {
    EXPECT_EQ(ctrl::parse_scheduler(name), sched) << name;
  }
  for (const auto& [name, level] :
       {std::pair{"3.1", video::H264Level::k31}, {"3.2", video::H264Level::k32},
        {"4", video::H264Level::k40}, {"4.0", video::H264Level::k40},
        {"4.2", video::H264Level::k42}, {"5.2", video::H264Level::k52}}) {
    EXPECT_EQ(video::parse_level(name), level) << name;
  }
  for (const auto& [name, preset] :
       {std::pair{"next_gen_mobile_ddr", dram::DevicePreset::kNextGenMobileDdr},
        {"mobile_ddr_2008", dram::DevicePreset::kMobileDdr2008},
        {"eight_bank_future", dram::DevicePreset::kEightBankFuture},
        {"wide_io_like", dram::DevicePreset::kWideIoLike}}) {
    EXPECT_EQ(dram::parse_device_preset(name), preset) << name;
  }
}

TEST(Vocabulary, UnknownNamesAreRejected) {
  EXPECT_FALSE(ctrl::parse_address_mux("RBX").has_value());
  EXPECT_FALSE(ctrl::parse_page_policy("half-open").has_value());
  EXPECT_FALSE(ctrl::parse_scheduler("bogus").has_value());
  EXPECT_FALSE(video::parse_level("6.2").has_value());
  EXPECT_FALSE(video::parse_level("").has_value());
  EXPECT_FALSE(dram::parse_device_preset("hbm9").has_value());
}

TEST(Vocabulary, PresetsBuildTheirFactorySpecs) {
  EXPECT_EQ(dram::device_spec(dram::DevicePreset::kEightBankFuture).org.banks, 8u);
  EXPECT_EQ(dram::device_spec(dram::DevicePreset::kWideIoLike).org.word_bits, 128u);
  EXPECT_EQ(dram::device_spec(dram::DevicePreset::kMobileDdr2008).power.vdd, 1.8);
  EXPECT_EQ(dram::device_spec(dram::DevicePreset::kNextGenMobileDdr).power.vdd, 1.35);
}

}  // namespace
}  // namespace mcm
