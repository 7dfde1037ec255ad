#include "multichannel/memory_system.hpp"

#include <gtest/gtest.h>

namespace mcm::multichannel {
namespace {

SystemConfig make_config(std::uint32_t channels, double freq = 400.0) {
  SystemConfig cfg;
  cfg.channels = channels;
  cfg.freq = Frequency{freq};
  return cfg;
}

TEST(MemorySystem, CapacityAndPeakBandwidthScaleWithChannels) {
  const MemorySystem one(make_config(1));
  const MemorySystem four(make_config(4));
  EXPECT_EQ(one.capacity_bytes(), 64ull * 1024 * 1024);
  EXPECT_EQ(four.capacity_bytes(), 256ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(one.peak_bandwidth_bytes_per_s(), 3.2e9);
  EXPECT_DOUBLE_EQ(four.peak_bandwidth_bytes_per_s(), 12.8e9);
}

TEST(MemorySystem, EightChannelsMatchPaperXdrComparison) {
  // Paper: 8 channels at 400 MHz give ~25 GB/s, comparable to the XDR.
  const MemorySystem sys(make_config(8));
  EXPECT_NEAR(sys.peak_bandwidth_bytes_per_s() / 1e9, 25.6, 0.7);
}

TEST(MemorySystem, RoutesAndServesSequentialTraffic) {
  MemorySystem sys(make_config(4));
  const int n = 1024;
  for (int i = 0; i < n; ++i) {
    sys.push(ctrl::Request{static_cast<std::uint64_t>(i) * 16, false,
                           Time::zero(), 0});
  }
  const Time last = sys.drain();
  const SystemStats s = sys.stats();
  EXPECT_EQ(s.reads, static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.bytes, static_cast<std::uint64_t>(n) * 16);
  EXPECT_GT(last, Time::zero());
  // Per-channel byte balance.
  for (std::uint32_t ch = 0; ch < 4; ++ch) {
    EXPECT_EQ(sys.channel(ch).stats().bytes, static_cast<std::uint64_t>(n) * 4);
  }
}

TEST(MemorySystem, MoreChannelsServeFasterNearLinearly) {
  auto run = [](std::uint32_t channels) {
    MemorySystem sys(make_config(channels));
    const int n = 4096;
    for (int i = 0; i < n; ++i) {
      sys.push(ctrl::Request{static_cast<std::uint64_t>(i) * 16, (i % 4) == 0,
                             Time::zero(), 0});
    }
    return sys.drain();
  };
  const Time t1 = run(1);
  const Time t2 = run(2);
  const Time t4 = run(4);
  // Paper Fig. 3: close to 2x speedup per channel doubling.
  EXPECT_NEAR(static_cast<double>(t1.ps()) / t2.ps(), 2.0, 0.35);
  EXPECT_NEAR(static_cast<double>(t2.ps()) / t4.ps(), 2.0, 0.35);
}

TEST(MemorySystem, PowerReportAggregatesChannels) {
  MemorySystem sys(make_config(2));
  for (int i = 0; i < 64; ++i) {
    sys.push(ctrl::Request{static_cast<std::uint64_t>(i) * 16, false, Time::zero(), 0});
  }
  (void)sys.drain();
  const Time window = Time::from_ms(1.0);
  sys.finalize(window);
  const SystemPowerReport p = sys.power(window);
  ASSERT_EQ(p.per_channel.size(), 2u);
  EXPECT_NEAR(p.total_mw, p.per_channel[0].total_mw + p.per_channel[1].total_mw,
              1e-9);
  EXPECT_GT(p.interface_mw, 0.0);
  EXPECT_GT(p.dram_mw, 0.0);
}

TEST(MemorySystem, ProcessNextServesMostBehindChannel) {
  // The kConcurrent loop's heap path. Load only channel 0 heavily, then one
  // request on channel 1: the heap serves channel 1 first (smaller
  // horizon), keeping channels in step.
  MemorySystem sys(make_config(2));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sys.try_submit(ctrl::Request{static_cast<std::uint64_t>(i) * 32,
                                             false, Time::zero(), 0}));
  }  // stride 32: all channel 0
  // Advance channel 0's horizon.
  for (int i = 0; i < 8; ++i) (void)sys.process_next();
  EXPECT_FALSE(sys.process_next().has_value());
  ASSERT_TRUE(sys.try_submit(ctrl::Request{0, false, Time::zero(), 1}));   // channel 0
  ASSERT_TRUE(sys.try_submit(ctrl::Request{16, false, Time::zero(), 2}));  // channel 1
  const auto first = sys.process_next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->req.source, 2);
  EXPECT_EQ(sys.process_next()->req.source, 1);
  EXPECT_FALSE(sys.process_next().has_value());
}

TEST(MemorySystem, RejectsInvalidConfig) {
  SystemConfig zero = make_config(0);
  EXPECT_THROW(MemorySystem{zero}, std::invalid_argument);
  SystemConfig bad_gran = make_config(2);
  bad_gran.interleave_bytes = 8;  // below the 16 B burst
  EXPECT_THROW(MemorySystem{bad_gran}, std::invalid_argument);
  SystemConfig no_queue = make_config(2);
  no_queue.controller.queue_depth = 0;
  EXPECT_THROW(MemorySystem{no_queue}, std::invalid_argument);
}

TEST(SystemConfig, ValidateNamesTheFailingField) {
  EXPECT_FALSE(make_config(4).validate().has_value());
  struct Case {
    const char* field;
    void (*mutate)(SystemConfig&);
  };
  const Case cases[] = {
      {"channels", [](SystemConfig& c) { c.channels = 0; }},
      {"controller.queue_depth", [](SystemConfig& c) { c.controller.queue_depth = 0; }},
      {"channel_classes",
       [](SystemConfig& c) { c.channel_classes = {dram::DeviceClass::kFastEdram}; }},
      {"interleave_bytes", [](SystemConfig& c) { c.interleave_bytes = 8; }},
      {"freq", [](SystemConfig& c) { c.freq = Frequency{600.0}; }},
      {"freq", [](SystemConfig& c) { c.freq = Frequency{150.0}; }},
      // The fast class runs down to 100 MHz, the base device only to 200.
      {"freq",
       [](SystemConfig& c) {
         c.freq = Frequency{150.0};
         c.channel_classes.assign(c.channels, dram::DeviceClass::kFastEdram);
         c.channel_classes[0] = dram::DeviceClass::kMobileDdr;
       }},
  };
  for (const Case& c : cases) {
    SystemConfig cfg = make_config(4);
    c.mutate(cfg);
    const auto error = cfg.validate();
    ASSERT_TRUE(error.has_value()) << c.field;
    EXPECT_EQ(error->field, c.field);
    EXPECT_THROW(MemorySystem{cfg}, std::invalid_argument) << c.field;
  }
  SystemConfig fast = make_config(4, 150.0);
  fast.channel_classes.assign(4, dram::DeviceClass::kFastEdram);
  EXPECT_FALSE(fast.validate().has_value()) << "every channel's class fits 150 MHz";
}

TEST(MemorySystem, AddressesBeyondCapacityWrapConsistently) {
  // A tiny device (1 MiB cluster) makes the wrap cheap to exercise: traffic
  // far beyond capacity still lands, balances, and counts correctly.
  SystemConfig cfg = make_config(2);
  cfg.device.org.capacity_bits = 8ull * 1024 * 1024;  // 1 MiB per cluster
  MemorySystem sys(cfg);
  ASSERT_EQ(sys.capacity_bytes(), 2ull * 1024 * 1024);
  const int n = 1024;
  for (int i = 0; i < n; ++i) {
    // Stride through 8x the capacity.
    const std::uint64_t addr =
        (static_cast<std::uint64_t>(i) * 16 * 1024 + 48) % (8 * sys.capacity_bytes());
    sys.push(ctrl::Request{addr, (i % 2) == 0, Time::zero(), 0});
  }
  (void)sys.drain();
  EXPECT_EQ(sys.stats().accesses(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(sys.stats().bytes, static_cast<std::uint64_t>(n) * 16);
}

TEST(MemorySystem, InterfacePowerMatchesEquationOne) {
  const MemorySystem sys(make_config(4));
  const SystemPowerReport p = sys.power(Time::from_ms(1.0));
  // 36 pins x 0.4 pF x 1.44 V^2 x 400 MHz x 0.5 = ~4.15 mW per channel.
  EXPECT_NEAR(p.interface_mw, 4 * 4.147, 0.1);
}

}  // namespace
}  // namespace mcm::multichannel
