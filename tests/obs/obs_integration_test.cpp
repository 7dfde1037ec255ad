// End-to-end observability checks: drive a real MemorySystem, then assert
// that the collected metric catalogue agrees with SystemStats and that an
// attached TraceSink sees every command and request.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "multichannel/memory_system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcm::multichannel {
namespace {

SystemConfig make_config(std::uint32_t channels) {
  SystemConfig cfg;
  cfg.channels = channels;
  cfg.freq = Frequency{400.0};
  return cfg;
}

void run_traffic(MemorySystem& sys, int n) {
  for (int i = 0; i < n; ++i) {
    sys.push(ctrl::Request{static_cast<std::uint64_t>(i) * 64 + 16, (i % 3) == 0,
                           Time::zero(), 0});
  }
  (void)sys.drain();
}

TEST(ObsIntegration, CollectedCountersMatchSystemStats) {
  MemorySystem sys(make_config(4));
  run_traffic(sys, 512);
  const SystemStats st = sys.stats();

  obs::MetricsRegistry reg;
  sys.collect_metrics(reg);

  EXPECT_EQ(reg.counter("system/reads").value(), st.reads);
  EXPECT_EQ(reg.counter("system/writes").value(), st.writes);
  EXPECT_EQ(reg.counter("system/bytes").value(), st.bytes);
  EXPECT_EQ(reg.counter("system/row_hits").value(), st.row_hits);
  EXPECT_EQ(reg.counter("system/activates").value(), st.activates);
  EXPECT_DOUBLE_EQ(reg.gauge("system/row_hit_rate").value(), st.row_hit_rate());

  // Per-channel counters must sum to the system aggregates.
  std::uint64_t reads = 0, writes = 0, bytes = 0, hits = 0, routed = 0;
  for (std::uint32_t ch = 0; ch < 4; ++ch) {
    const std::string p = "ch" + std::to_string(ch) + "/";
    reads += reg.counter(p + "reads").value();
    writes += reg.counter(p + "writes").value();
    bytes += reg.counter(p + "bytes").value();
    hits += reg.counter(p + "row_hits").value();
    routed += reg.counter("interleaver/routed/ch" + std::to_string(ch)).value();
  }
  EXPECT_EQ(reads, st.reads);
  EXPECT_EQ(writes, st.writes);
  EXPECT_EQ(bytes, st.bytes);
  EXPECT_EQ(hits, st.row_hits);
  EXPECT_EQ(routed, 512u);
  EXPECT_EQ(routed, st.accesses());
}

TEST(ObsIntegration, LatencyHistogramCoversEveryRequest) {
  MemorySystem sys(make_config(2));
  run_traffic(sys, 256);
  const SystemStats st = sys.stats();
  ASSERT_EQ(st.latency_ns.count(), 256u);
  EXPECT_EQ(st.latency_hist_ns.summary().count(), 256u);
  // Percentiles are ordered and bracketed by the observed extrema.
  const double p50 = st.latency_hist_ns.percentile(0.50);
  const double p95 = st.latency_hist_ns.percentile(0.95);
  const double p99 = st.latency_hist_ns.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, st.latency_ns.min());
  // Histogram aggregation must match the plain accumulator's moments.
  EXPECT_NEAR(st.latency_hist_ns.summary().mean(), st.latency_ns.mean(), 1e-9);

  obs::MetricsRegistry reg;
  sys.collect_metrics(reg);
  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& e : snap) {
    if (e.name == "system/latency_ns") {
      found = true;
      EXPECT_EQ(e.count, 256u);
      EXPECT_GT(e.p99, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsIntegration, PerBankAccessCountsSumToChannelAccesses) {
  MemorySystem sys(make_config(2));
  run_traffic(sys, 128);
  const SystemStats st = sys.stats();

  obs::MetricsRegistry reg;
  sys.collect_metrics(reg);
  const std::uint32_t banks = sys.config().device.org.banks;
  std::uint64_t bank_total = 0;
  for (std::uint32_t ch = 0; ch < 2; ++ch) {
    for (std::uint32_t b = 0; b < banks; ++b) {
      bank_total += reg.counter("ch" + std::to_string(ch) + "/bank" +
                                std::to_string(b) + "/accesses")
                        .value();
    }
  }
  EXPECT_EQ(bank_total, st.accesses());
}

TEST(ObsIntegration, AttachedTraceSeesEveryRequestAndCommand) {
  std::ostringstream trace_out;
  {
    MemorySystem sys(make_config(2));
    obs::TraceSink sink(trace_out, 64);
    sys.attach_trace(&sink);
    run_traffic(sys, 64);
    sys.attach_trace(nullptr);
    sink.flush();

    const SystemStats st = sys.stats();
    std::istringstream in(trace_out.str());
    std::string line;
    std::uint64_t cmd_lines = 0, req_lines = 0, meta_lines = 0;
    while (std::getline(in, line)) {
      if (line.find(R"("type":"cmd")") != std::string::npos) ++cmd_lines;
      if (line.find(R"("type":"req")") != std::string::npos) ++req_lines;
      if (line.find(R"("type":"meta")") != std::string::npos) ++meta_lines;
    }
    EXPECT_EQ(meta_lines, 1u);
    EXPECT_EQ(req_lines, st.accesses());
    // At least one command per access (RD/WR), plus activates.
    EXPECT_GE(cmd_lines, st.accesses() + st.activates);
  }
}

TEST(ObsIntegration, DetachedTraceRecordsNothing) {
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out, 64);
  MemorySystem sys(make_config(2));
  sys.attach_trace(&sink);
  sys.attach_trace(nullptr);
  run_traffic(sys, 32);
  sink.flush();
  EXPECT_EQ(sink.events_recorded(), 0u);
}

TEST(ObsIntegration, PrefixNamespacesTheCatalogue) {
  MemorySystem sys(make_config(1));
  run_traffic(sys, 16);
  obs::MetricsRegistry reg;
  sys.collect_metrics(reg, "sysA/");
  EXPECT_TRUE(reg.contains("sysA/system/reads"));
  EXPECT_FALSE(reg.contains("system/reads"));
}

}  // namespace
}  // namespace mcm::multichannel
