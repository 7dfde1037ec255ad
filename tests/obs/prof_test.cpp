// Unit tests for the self-profiling subsystem (obs/prof): recording
// semantics (scoped spans, tallies, counters, value histograms), self-time
// attribution, collect/reset behavior, and the mcm.prof/v1 JSON round trip.
// The profiler is process-global state, so every test starts from a clean,
// enabled profiler and leaves it disabled and empty.
#include "obs/prof.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"

namespace mcm::obs::prof {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    (void)collect(/*reset=*/true);  // drop anything earlier tests recorded
  }
  void TearDown() override {
    set_enabled(false);
    (void)collect(/*reset=*/true);
  }
};

void spin_for_ns(std::int64_t ns) {
  const std::int64_t t0 = now_ns();
  while (now_ns() - t0 < ns) {
  }
}

TEST_F(ProfTest, PhaseIdsAreInternedAndStable) {
  const PhaseId a = phase_id("test/alpha");
  const PhaseId b = phase_id("test/beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, phase_id("test/alpha"));
  EXPECT_EQ(b, phase_id("test/beta"));
}

TEST_F(ProfTest, DisabledRecordsNothing) {
  set_enabled(false);
  const PhaseId ph = phase_id("test/disabled");
  {
    ScopedTimer t(ph);
    spin_for_ns(1000);
  }
  tally(ph, 500);
  count(ph, 3);
  set_enabled(true);
  const ProfileReport rep = collect(true);
  EXPECT_EQ(rep.find("test/disabled"), nullptr);
  EXPECT_TRUE(rep.spans.empty());
}

TEST_F(ProfTest, ScopedTimerRecordsPhaseAndSpan) {
  const PhaseId ph = phase_id("test/span");
  {
    ScopedTimer t(ph);
    spin_for_ns(50 * 1000);
  }
  const ProfileReport rep = collect(true);
  const ProfilePhase* p = rep.find("test/span");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->calls, 1u);
  EXPECT_GE(p->wall_ns, 50 * 1000);
  EXPECT_EQ(p->self_ns, p->wall_ns);
  EXPECT_EQ(p->max_ns, p->wall_ns);
  ASSERT_EQ(rep.spans.size(), 1u);
  EXPECT_EQ(rep.spans[0].dur_ns, p->wall_ns);
  EXPECT_EQ(rep.phases[rep.spans[0].phase].name, "test/span");
}

TEST_F(ProfTest, NestedSpansAttributeSelfTimeExactly) {
  const PhaseId outer = phase_id("test/outer");
  const PhaseId inner = phase_id("test/inner");
  {
    ScopedTimer a(outer);
    spin_for_ns(20 * 1000);
    {
      ScopedTimer b(inner);
      spin_for_ns(20 * 1000);
    }
    spin_for_ns(20 * 1000);
  }
  const ProfileReport rep = collect(true);
  const ProfilePhase* po = rep.find("test/outer");
  const ProfilePhase* pi = rep.find("test/inner");
  ASSERT_NE(po, nullptr);
  ASSERT_NE(pi, nullptr);
  // Self time is wall minus enclosed spans - exact integer arithmetic on the
  // recorded durations, not an approximation.
  EXPECT_EQ(po->self_ns, po->wall_ns - pi->wall_ns);
  EXPECT_EQ(pi->self_ns, pi->wall_ns);
  EXPECT_GT(po->self_ns, 0);
}

TEST_F(ProfTest, StopClosesEarlyAndIsIdempotent) {
  const PhaseId ph = phase_id("test/stop");
  ScopedTimer t(ph);
  spin_for_ns(1000);
  t.stop();
  t.stop();  // second stop (and the destructor) must not double-record
  const ProfileReport rep = collect(true);
  const ProfilePhase* p = rep.find("test/stop");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->calls, 1u);
}

TEST_F(ProfTest, TallyAccumulatesWithoutSpans) {
  const PhaseId ph = phase_id("test/tally");
  tally(ph, 100);
  tally(ph, 300);
  tally(ph, 4000, /*calls=*/4);  // 4 episodes totalling 4 us
  const ProfileReport rep = collect(true);
  const ProfilePhase* p = rep.find("test/tally");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->calls, 6u);
  EXPECT_EQ(p->wall_ns, 4400);
  EXPECT_EQ(p->self_ns, 4400);
  EXPECT_GE(p->max_ns, 1000);  // the 4-call tally samples its mean episode
  EXPECT_TRUE(rep.spans.empty()) << "tally must not emit spans";
}

TEST_F(ProfTest, CountIsAPureCounter) {
  const PhaseId ph = phase_id("test/count");
  count(ph, 5);
  count(ph, 7);
  count(ph, 0);  // no-op
  const ProfileReport rep = collect(true);
  const ProfilePhase* p = rep.find("test/count");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->calls, 12u);
  EXPECT_EQ(p->wall_ns, 0);
}

TEST_F(ProfTest, CollectMergesSpoolsFromOtherThreads) {
  const PhaseId ph = phase_id("test/worker");
  std::thread worker([ph] { tally(ph, 2000, 2); });
  worker.join();
  tally(ph, 1000);
  const ProfileReport rep = collect(true);
  const ProfilePhase* p = rep.find("test/worker");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->calls, 3u);
  EXPECT_EQ(p->wall_ns, 3000);
}

TEST_F(ProfTest, CollectWithResetClears) {
  const PhaseId ph = phase_id("test/reset");
  tally(ph, 100);
  const ProfileReport first = collect(true);
  EXPECT_NE(first.find("test/reset"), nullptr);
  const ProfileReport second = collect(true);
  EXPECT_EQ(second.find("test/reset"), nullptr);
  EXPECT_TRUE(second.spans.empty());
}

TEST_F(ProfTest, JsonRoundTripPreservesEverything) {
  const PhaseId outer = phase_id("test/rt_outer");
  const PhaseId inner = phase_id("test/rt_inner");
  {
    ScopedTimer a(outer);
    ScopedTimer b(inner);
    spin_for_ns(1000);
  }
  count(phase_id("test/rt_count"), 9);
  const ProfileReport rep = collect(true);

  const JsonValue doc = rep.to_json(/*with_spans=*/true);
  std::string error;
  const auto parsed = json_parse(doc.dump_string(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  ProfileReport back;
  ASSERT_TRUE(profile_from_json(*parsed, back));
  ASSERT_EQ(back.phases.size(), rep.phases.size());
  for (std::size_t i = 0; i < rep.phases.size(); ++i) {
    EXPECT_EQ(back.phases[i].name, rep.phases[i].name);
    EXPECT_EQ(back.phases[i].calls, rep.phases[i].calls);
    EXPECT_EQ(back.phases[i].wall_ns, rep.phases[i].wall_ns);
    EXPECT_EQ(back.phases[i].self_ns, rep.phases[i].self_ns);
    EXPECT_EQ(back.phases[i].max_ns, rep.phases[i].max_ns);
    EXPECT_DOUBLE_EQ(back.phases[i].p50, rep.phases[i].p50);
    EXPECT_DOUBLE_EQ(back.phases[i].p95, rep.phases[i].p95);
  }
  ASSERT_EQ(back.spans.size(), rep.spans.size());
  for (std::size_t i = 0; i < rep.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].tid, rep.spans[i].tid);
    EXPECT_EQ(back.spans[i].phase, rep.spans[i].phase);
    EXPECT_EQ(back.spans[i].start_ns, rep.spans[i].start_ns);
    EXPECT_EQ(back.spans[i].dur_ns, rep.spans[i].dur_ns);
  }
  EXPECT_EQ(back.dropped_spans, rep.dropped_spans);
  EXPECT_EQ(back.thread_labels, rep.thread_labels);
}

TEST_F(ProfTest, FromJsonRejectsWrongSchemaAndBadSpanRefs) {
  ProfileReport out;
  JsonValue wrong = JsonValue::object();
  wrong["schema"] = "mcm.trace/v1";
  EXPECT_FALSE(profile_from_json(wrong, out));

  JsonValue bad = JsonValue::object();
  bad["schema"] = "mcm.prof/v1";
  bad["phases"] = JsonValue::array();
  auto& spans = bad["spans"];
  spans = JsonValue::array();
  JsonValue s = JsonValue::object();
  s["ph"] = 3;  // out of range: no phases
  spans.push(std::move(s));
  EXPECT_FALSE(profile_from_json(bad, out));
}

TEST_F(ProfTest, ChromeTraceIsValidJsonWithSpansAndThreadNames) {
  const PhaseId ph = phase_id("test/chrome");
  {
    ScopedTimer t(ph);
    spin_for_ns(1000);
  }
  const ProfileReport rep = collect(true);
  std::ostringstream os;
  rep.write_chrome_trace(os);

  std::string error;
  const auto parsed = json_parse(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool meta = false;
  bool complete = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = *events->at(i);
    const std::string kind = e.find("ph")->as_string();
    if (kind == "M") meta = true;
    if (kind == "X") {
      complete = true;
      EXPECT_EQ(e.find("name")->as_string(), "test/chrome");
      EXPECT_GE(e.find("dur")->as_double(), 1.0);  // >= 1 us spun
    }
  }
  EXPECT_TRUE(meta);
  EXPECT_TRUE(complete);
}

TEST_F(ProfTest, EnvParsingAcceptsOnForms) {
  // Pure read - must not disturb the latched runtime flag.
  setenv("MCM_PROF", "1", 1);
  EXPECT_TRUE(env_requests_profiling());
  setenv("MCM_PROF", "on", 1);
  EXPECT_TRUE(env_requests_profiling());
  setenv("MCM_PROF", "0", 1);
  EXPECT_FALSE(env_requests_profiling());
  unsetenv("MCM_PROF");
  EXPECT_FALSE(env_requests_profiling());
}

}  // namespace
}  // namespace mcm::obs::prof
