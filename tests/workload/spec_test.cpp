#include "workload/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#ifndef MCM_WORKLOAD_DIR
#define MCM_WORKLOAD_DIR "."
#endif

namespace mcm::workload {
namespace {

WorkloadSpec three_tenant_spec() {
  WorkloadSpec s;
  s.name = "t3";
  s.channels = 2;
  s.freq_mhz = 333;
  s.frames = 2;
  s.period_ps = 1'000'000;
  TenantSpec video;
  video.name = "cam";
  video.kind = "video";
  video.level = "3.2";
  video.max_requests = 100;
  video.pace_ps = 500;
  TenantSpec trace;
  trace.name = "replay";
  trace.kind = "trace";
  trace.path = "some/trace.tracebin";
  trace.format = "binary";
  TenantSpec gen;
  gen.name = "rnd";
  gen.kind = "generator";
  gen.generator = "uniform_random";
  gen.window_bytes = 4096;
  gen.bytes = 8192;
  gen.write_fraction = 0.5;
  gen.seed = 9;
  s.tenants = {video, trace, gen};
  return s;
}

TEST(WorkloadSpec, JsonRoundTripIsExact) {
  const WorkloadSpec original = three_tenant_spec();
  std::string error;
  const auto parsed = workload_from_json(workload_to_json(original), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, original);
}

TEST(WorkloadSpec, RejectsMissingSchema) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["name"] = "x";
  std::string error;
  EXPECT_FALSE(workload_from_json(doc, &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(WorkloadSpec, RejectsBadTenants) {
  const auto parse_with = [](auto mutate) {
    WorkloadSpec s = three_tenant_spec();
    mutate(s);
    std::string error;
    const auto parsed = workload_from_json(workload_to_json(s), &error);
    return std::pair{parsed.has_value(), error};
  };
  auto [ok1, e1] = parse_with([](WorkloadSpec& s) { s.tenants[0].level = "9.9"; });
  EXPECT_FALSE(ok1);
  EXPECT_NE(e1.find("level"), std::string::npos);
  auto [ok2, e2] = parse_with([](WorkloadSpec& s) { s.tenants[1].path.clear(); });
  EXPECT_FALSE(ok2);
  EXPECT_NE(e2.find("path"), std::string::npos);
  auto [ok3, e3] =
      parse_with([](WorkloadSpec& s) { s.tenants[2].generator = "zipf"; });
  EXPECT_FALSE(ok3);
  EXPECT_NE(e3.find("generator"), std::string::npos);
  auto [ok4, e4] = parse_with([](WorkloadSpec& s) { s.tenants[2].kind = "gpu"; });
  EXPECT_FALSE(ok4);
  EXPECT_NE(e4.find("kind"), std::string::npos);
  auto [ok5, e5] =
      parse_with([](WorkloadSpec& s) { s.tenants[2].write_fraction = 1.5; });
  EXPECT_FALSE(ok5);
  EXPECT_NE(e5.find("write_fraction"), std::string::npos);
}

TEST(WorkloadSpec, RejectsBadSystem) {
  WorkloadSpec s = three_tenant_spec();
  s.channels = 0;
  EXPECT_FALSE(workload_from_json(workload_to_json(s)).has_value());
  s = three_tenant_spec();
  s.device = "hbm9";
  EXPECT_FALSE(workload_from_json(workload_to_json(s)).has_value());
  s = three_tenant_spec();
  s.tenants.clear();
  EXPECT_FALSE(workload_from_json(workload_to_json(s)).has_value());
}

// Every bad system value is an error naming the field: values that used to
// wrap through a narrowing cast or fail only at run time.
TEST(WorkloadSpec, BadConfigsNameTheField) {
  const struct {
    const char* key;
    obs::JsonValue value;
    const char* field;
  } cases[] = {
      {"channels", obs::JsonValue{std::uint64_t{4294967297}}, "system.channels"},
      {"channels", obs::JsonValue{-1}, "system.channels"},
      {"channels", obs::JsonValue{0}, "system.channels"},
      {"channels", obs::JsonValue{"4"}, "system.channels"},
      {"freq_mhz", obs::JsonValue{std::uint64_t{4294967696}}, "system.freq_mhz"},
      {"freq_mhz", obs::JsonValue{600}, "system.freq"},
      {"freq_mhz", obs::JsonValue{0}, "system.freq"},
      {"interleave_bytes", obs::JsonValue{std::uint64_t{4294967312}},
       "system.interleave_bytes"},
      {"interleave_bytes", obs::JsonValue{8}, "system.interleave_bytes"},
      {"device", obs::JsonValue{"hbm9"}, "unknown device spec"},
  };
  for (const auto& c : cases) {
    obs::JsonValue doc = workload_to_json(three_tenant_spec());
    doc["system"][c.key] = c.value;
    std::string error;
    EXPECT_FALSE(workload_from_json(doc, &error).has_value()) << c.key;
    EXPECT_NE(error.find(c.field), std::string::npos) << c.key << ": " << error;
  }

  WorkloadSpec s = three_tenant_spec();
  s.channel_classes = {"fast_edram"};  // two channels, one class
  std::string error;
  EXPECT_FALSE(workload_from_json(workload_to_json(s), &error).has_value());
  EXPECT_NE(error.find("system.channel_classes"), std::string::npos) << error;

  for (const std::int64_t frames : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{4294967297}}) {
    obs::JsonValue doc = workload_to_json(three_tenant_spec());
    doc["frames"] = frames;
    EXPECT_FALSE(workload_from_json(doc, &error).has_value()) << frames;
    EXPECT_NE(error.find("frames"), std::string::npos) << frames << ": " << error;
  }
  obs::JsonValue doc = workload_to_json(three_tenant_spec());
  doc["tenants"] = obs::JsonValue::array();
  obs::JsonValue tenant = obs::JsonValue::object();
  tenant["kind"] = "generator";
  tenant["bytes"] = -4096;
  doc["tenants"].push(tenant);
  EXPECT_FALSE(workload_from_json(doc, &error).has_value());
  EXPECT_NE(error.find("tenant 0: bytes"), std::string::npos) << error;
}

TEST(WorkloadSpec, CommittedSpecsLoad) {
  for (const char* name : {"mixed_tenants.workload.json", "sample_source.workload.json"}) {
    std::string error;
    EXPECT_TRUE(load_workload(std::string(MCM_WORKLOAD_DIR) + "/" + name, &error))
        << name << ": " << error;
  }
}

TEST(WorkloadSpec, CacheKeyTracksStreamAffectingFields) {
  const WorkloadSpec a = three_tenant_spec();
  WorkloadSpec b = a;
  EXPECT_EQ(a.cache_key(), b.cache_key());
  b.tenants[2].seed = 10;
  EXPECT_NE(a.cache_key(), b.cache_key());
  WorkloadSpec c = a;
  c.channels = 8;  // partition layout changes with the system shape
  EXPECT_NE(a.cache_key(), c.cache_key());
}

TEST(WorkloadSpec, ParseLevelKnowsTheTableIColumns) {
  EXPECT_TRUE(video::parse_level("3.1").has_value());
  EXPECT_TRUE(video::parse_level("5.2").has_value());
  EXPECT_FALSE(video::parse_level("6.2").has_value());
}

TEST(WorkloadSpec, LoadResolvesTracePathsRelativeToSpecDir) {
  const std::string dir = testing::TempDir();
  const std::string trace_path = dir + "rel_sample.trace";
  {
    std::ofstream trace(trace_path);
    trace << "0 R 0x100 0\n";
  }
  WorkloadSpec s = three_tenant_spec();
  s.tenants[1].path = "rel_sample.trace";
  s.tenants[1].format = "auto";
  const std::string spec_path = dir + "rel_spec.workload.json";
  ASSERT_TRUE(save_workload(s, spec_path));

  std::string error;
  const auto loaded = load_workload(spec_path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->tenants[1].path, trace_path);
  std::remove(trace_path.c_str());
  std::remove(spec_path.c_str());
}

TEST(WorkloadSpec, CommittedMixedTenantScenarioParses) {
  // The committed scenario must stay loadable and keep the acceptance
  // shape: >= 3 tenants covering all three kinds.
  std::string error;
  const auto spec = load_workload(
      std::string(MCM_WORKLOAD_DIR) + "/mixed_tenants.workload.json", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_GE(spec->tenants.size(), 3u);
  bool has_video = false, has_trace = false, has_generator = false;
  for (const auto& t : spec->tenants) {
    has_video |= t.kind == "video";
    has_trace |= t.kind == "trace";
    has_generator |= t.kind == "generator";
  }
  EXPECT_TRUE(has_video);
  EXPECT_TRUE(has_trace);
  EXPECT_TRUE(has_generator);
  // The trace path resolved against the workloads/ directory.
  EXPECT_NE(spec->tenants[1].path.find("workloads/"), std::string::npos);
}

}  // namespace
}  // namespace mcm::workload
