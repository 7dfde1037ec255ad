#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "load/trace.hpp"
#include "verify/differ.hpp"
#include "verify/workload_scenario.hpp"
#include "workload/composer.hpp"
#include "workload/workload.hpp"

#ifndef MCM_WORKLOAD_DIR
#define MCM_WORKLOAD_DIR "."
#endif

namespace mcm::workload {
namespace {

/// A small but genuinely mixed scenario: one video level, one replayed
/// trace (written to a temp file), one synthetic generator.
class SmallMixedWorkload : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each TEST_F as its own process in
    // parallel, and a shared path lets one test's TearDown unlink the
    // trace while a sibling is still reading it.
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    trace_path_ = testing::TempDir() + "mcm_multi_tenant_" +
                  std::string(info->name()) + ".trace";
    std::ofstream trace(trace_path_);
    trace << "0 R 0x0\n0 W 0x1000\n100 R 0x2000\n200 R 0x0\n";
    trace.close();

    spec_.name = "small_mixed";
    spec_.channels = 4;
    spec_.frames = 2;
    TenantSpec video;
    video.name = "cam";
    video.kind = "video";
    video.level = "3.1";
    video.max_requests = 600;
    video.pace_ps = 10'000'000'000;
    TenantSpec trace_tenant;
    trace_tenant.name = "replay";
    trace_tenant.kind = "trace";
    trace_tenant.path = trace_path_;
    trace_tenant.pace_ps = 5'000'000'000;
    TenantSpec gen;
    gen.name = "chaser";
    gen.kind = "generator";
    gen.generator = "pointer_chase";
    gen.window_bytes = 1 << 16;
    gen.bytes = 1 << 14;
    gen.write_fraction = 0.5;
    gen.seed = 3;
    gen.pace_ps = 10'000'000'000;
    spec_.tenants = {video, trace_tenant, gen};
  }

  void TearDown() override { std::remove(trace_path_.c_str()); }

  std::string trace_path_;
  WorkloadSpec spec_;
};

TEST_F(SmallMixedWorkload, PartitionsAreDisjointAlignedAndSized) {
  const auto compiled = compile_workload(spec_);
  ASSERT_EQ(compiled.tenants.size(), 3u);
  const std::uint64_t align = 64 * 1024;
  std::uint64_t prev_end = 0;
  for (const auto& t : compiled.tenants) {
    EXPECT_EQ(t.partition_base % align, 0u) << t.name;
    EXPECT_EQ(t.partition_bytes % align, 0u) << t.name;
    EXPECT_GT(t.partition_bytes, 0u) << t.name;
    EXPECT_GE(t.partition_base, prev_end) << t.name;  // no overlap
    prev_end = t.partition_base + t.partition_bytes;
  }
}

TEST_F(SmallMixedWorkload, RequestsLandInsideTheirPartition) {
  const auto compiled = compile_workload(spec_);
  // The composed stage holds every tenant's requests; each rebased address
  // must fall inside exactly one tenant's partition, and every tenant must
  // show up.
  ASSERT_EQ(compiled.frame->stages.size(), 1u);
  std::set<std::size_t> hit;
  for (const std::uint64_t packed : compiled.frame->stages[0].reqs) {
    const std::uint64_t addr = packed & load::kMaxTraceAddr;
    bool inside_someone = false;
    for (std::size_t i = 0; i < compiled.tenants.size(); ++i) {
      const auto& t = compiled.tenants[i];
      if (addr >= t.partition_base && addr < t.partition_base + t.partition_bytes) {
        hit.insert(i);
        inside_someone = true;
        break;
      }
    }
    EXPECT_TRUE(inside_someone) << "stray address 0x" << std::hex << addr;
  }
  EXPECT_EQ(hit.size(), compiled.tenants.size());
}

TEST_F(SmallMixedWorkload, TotalsAreTheSumOfTenantContributions) {
  const auto compiled = compile_workload(spec_);
  std::uint64_t requests = 0, bytes = 0;
  for (const auto& t : compiled.tenants) {
    requests += t.requests;
    bytes += t.bytes;
  }
  EXPECT_EQ(compiled.total_requests, requests);
  EXPECT_EQ(compiled.frame->stages[0].reqs.size(), requests);
  EXPECT_EQ(requests * compiled.burst_bytes, bytes);
  // The trace tenant contributes exactly its 4 recorded requests; the
  // generator exactly bytes / burst.
  EXPECT_EQ(compiled.tenants[1].requests, 4u);
  EXPECT_EQ(compiled.tenants[2].requests,
            (std::uint64_t{1} << 14) / compiled.burst_bytes);
}

TEST_F(SmallMixedWorkload, ExplicitPartitionsAreHonoredAndOverflowRejected) {
  spec_.tenants[2].partition_bytes = 1 << 20;
  const auto compiled = compile_workload(spec_);
  EXPECT_EQ(compiled.tenants[2].partition_bytes, std::uint64_t{1} << 20);

  WorkloadSpec huge = spec_;
  huge.tenants[0].partition_bytes = std::uint64_t{1} << 62;
  huge.tenants[1].partition_bytes = std::uint64_t{1} << 62;
  EXPECT_THROW((void)compile_workload(huge), std::invalid_argument);
}

TEST_F(SmallMixedWorkload, ByteIdenticalReportsOnRepeat) {
  // The composed scenario simulates deterministically: a second run, which
  // replays the memoized stream, exports the same report bytes.
  auto report_bytes = [this] {
    const auto run = run_workload(spec_);
    obs::RunReport report("det");
    export_workload_report(report, spec_, run);
    std::ostringstream out;
    report.write(out);
    return out.str();
  };
  const std::string first = report_bytes();
  EXPECT_EQ(report_bytes(), first);
  EXPECT_NE(first.find("\"meets_realtime\""), std::string::npos);
}

TEST_F(SmallMixedWorkload, CleanUnderTheDifferentialVerifier) {
  // The composed multi-tenant stream, bridged into an mcm.repro/v1
  // scenario, must show no divergence between the production engine and
  // the golden reference model.
  spec_.frames = 1;
  const auto divergence = verify::diff_scenario(verify::scenario_from_workload(spec_));
  EXPECT_FALSE(divergence.has_value()) << *divergence;
}

TEST_F(SmallMixedWorkload, RecordedStreamReplaysThroughEveryFormat) {
  const auto recorded = record_workload(spec_);
  ASSERT_FALSE(recorded.empty());
  // Merge-order arrivals are non-decreasing, so the stream is a valid
  // trace in every format that carries timestamps.
  for (std::size_t i = 1; i < recorded.size(); ++i) {
    EXPECT_GE(recorded[i].arrival, recorded[i - 1].arrival) << i;
  }
  std::stringstream ss;
  load::write_trace(ss, recorded);
  EXPECT_EQ(load::read_trace(ss).size(), recorded.size());
}

TEST(MixedTenantSource, MergesByArrivalWithIndexTieBreak) {
  std::vector<std::unique_ptr<load::TrafficSource>> tenants;
  tenants.push_back(std::make_unique<load::TraceReplaySource>(
      std::vector<ctrl::Request>{{0x10, false, Time{100}, 1},
                                 {0x20, false, Time{300}, 1}},
      "a"));
  tenants.push_back(std::make_unique<load::TraceReplaySource>(
      std::vector<ctrl::Request>{{0x30, true, Time{100}, 2},
                                 {0x40, true, Time{200}, 2}},
      "b"));
  MixedTenantSource mixed("mix", std::move(tenants));
  EXPECT_EQ(mixed.tenant_count(), 2u);
  EXPECT_EQ(mixed.total_bytes(), 4 * 16u);

  std::vector<std::uint64_t> order;
  while (!mixed.done()) {
    order.push_back(mixed.head().addr);
    mixed.advance();
  }
  // t=100 tie goes to tenant 0 first, then tenant 1; t=200 from tenant 1
  // interleaves before tenant 0's t=300.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0x10, 0x30, 0x40, 0x20}));
}

TEST(MixedTenants, CommittedScenarioMatchesGoldenReport) {
  // End-to-end pin: the committed mixed_tenants scenario, run through
  // compile + simulate + export, reproduces the committed golden report
  // byte for byte (the CI workload-smoke job checks the same invariant
  // through the mcm_trace CLI).
  std::string error;
  const auto spec = load_workload(
      std::string(MCM_WORKLOAD_DIR) + "/mixed_tenants.workload.json", &error);
  ASSERT_TRUE(spec.has_value()) << error;

  const auto run = run_workload(*spec);
  obs::RunReport report("workload_" + spec->name);
  export_workload_report(report, *spec, run);
  std::ostringstream produced;
  report.write(produced);

  std::ifstream golden_file(std::string(MCM_WORKLOAD_DIR) +
                            "/mixed_tenants.report.json");
  ASSERT_TRUE(golden_file.good());
  std::stringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(produced.str(), golden.str());
}

}  // namespace
}  // namespace mcm::workload
