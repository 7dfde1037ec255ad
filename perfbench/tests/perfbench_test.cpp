// Unit tests for the benchmark's own arithmetic: order statistics, the tail
// rule, span self time, point digests and the paper-error figure.
//
//   cmake -S perfbench -B build-perfbench -DPERFBENCH_TESTS=ON
//   cmake --build build-perfbench -j 2 && ctest --test-dir build-perfbench
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/experiments.hpp"
#include "load/stream_cache.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(int lo, int hi) {
  std::vector<double> v(static_cast<std::size_t>(hi - lo + 1));
  std::iota(v.begin(), v.end(), lo);
  return v;
}

// Reference values from Python's statistics.quantiles(v, n=4).
TEST(Stats, QuartilesMatchPython) {
  struct Case {
    std::vector<double> v;
    double q1, q2, q3;
  };
  const std::vector<Case> cases = {
      {iota(1, 10), 2.75, 5.5, 8.25},
      {{1, 2}, 0.75, 1.5, 2.25},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{5, 1, 4, 2, 3, 9, 7}, 2.0, 4.0, 7.0},
      {{0.5, 0.25, 4.0, 1.0}, 0.3125, 0.75, 3.25},
  };
  for (const Case& c : cases) {
    const Quartiles q = quartiles(c.v);
    EXPECT_DOUBLE_EQ(q.q1, c.q1);
    EXPECT_DOUBLE_EQ(q.median, c.q2);
    EXPECT_DOUBLE_EQ(q.q3, c.q3);
    EXPECT_DOUBLE_EQ(q.iqr(), c.q3 - c.q1);
    EXPECT_DOUBLE_EQ(median(c.v), c.q2);
  }
  EXPECT_DOUBLE_EQ(quartiles(iota(1, 10)).spread(), 5.5 / 5.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  Tail t = tail(iota(1, 1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);

  t = tail(iota(1, 100));  // p99 and p95 leave 1 and 5 beyond
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90.0);

  t = tail(iota(1, 20));  // only the median leaves ten beyond
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 10.5);

  t = tail(iota(1, 19));  // not even the median: report the max as such
  EXPECT_EQ(t.percentile, 0.0);
  EXPECT_EQ(t.value, 19.0);
  EXPECT_EQ(t.samples, 19u);
  EXPECT_EQ(describe(t), "max of 19 samples (too few for a tail)");
  EXPECT_EQ(describe(tail(iota(1, 100))), "p90 of 100 samples");
}

TEST(Spans, SelfTimeSubtractsChildCoverageOnce) {
  std::vector<Span> spans(5);
  spans[0] = {"parent", 0, 100, -1, 1};
  spans[1] = {"a", 10, 30, 0, 1};
  spans[2] = {"b", 20, 50, 0, 1};   // overlaps a: covered once
  spans[3] = {"c", 90, 120, 0, 1};  // clipped to the parent's end
  spans[4] = {"leaf", 25, 28, 1, 1};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 20 - 3);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[4], 3);

  const auto by_name = totals_by_name(spans);
  EXPECT_EQ(by_name.at("parent").self_ns, 50);
  EXPECT_EQ(by_name.at("parent").total_ns, 100);
  EXPECT_EQ(by_name.at("a").count, 1u);
}

TEST(Spans, RecorderLinksNestedSpans) {
  SpanRecorder rec;
  {
    ScopedSpan off(rec, "ignored", 0);  // disabled: records nothing
  }
  rec.set_enabled(true);
  {
    ScopedSpan outer(rec, "outer", 7);
    ScopedSpan inner(rec, "inner", 7);
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].item, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(durations_ms(spans, "inner").size(), 1u);
}

TEST(Digest, StableAndSensitive) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a_hex("a"), "af63dc4c8601ec8c");

  mcm::core::FrameSimResult r;
  r.total_power_mw = 150.0;
  const std::string d = point_digest("L3.1/1ch/400MHz", r);
  EXPECT_EQ(d.size(), 16u);
  EXPECT_EQ(point_digest("L3.1/1ch/400MHz", r), d);
  EXPECT_NE(point_digest("L3.1/2ch/400MHz", r), d);
  r.total_power_mw = 150.000001;
  EXPECT_NE(point_digest("L3.1/1ch/400MHz", r), d);
}

TEST(Digest, RunItemMatchesPointDigestAndRepeats) {
  // One real (small) fuzz case and one real point: outputs repeat exactly.
  SpanRecorder rec;
  Workload fuzz = make_workload("fuzz_certify", 42, rec);
  const ItemOutcome a = run_item(fuzz.items[0], rec, 0);
  EXPECT_TRUE(a.ok) << a.error;

  Workload grid = make_workload("fig_grid", 0, rec);
  const Item& point = grid.items.back();  // the cheapest point
  const ItemOutcome first = run_item(point, rec, 0);
  const ItemOutcome second = run_item(point, rec, 1);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.digest, second.digest);
  const auto r = mcm::core::FrameSimulator(point.sim).run(point.system, point.usecase);
  EXPECT_EQ(point_digest(point.label, r), first.digest);
}

TEST(Workloads, SetupBuildsExactlyWhatThePointsRead) {
  // If set-up keyed a stream differently from FrameSimulator::run, the
  // timed item would build (and cache) one more entry.
  SpanRecorder rec;
  auto& cache = mcm::load::StreamCache::instance();
  for (const char* name : {"sharded_frames", "policy_sweep"}) {
    cache.clear();
    Workload w = make_workload(name, 0, rec);
    w.items.erase(w.items.begin(), w.items.end() - 1);  // the cheapest point
    build_streams(w, rec);
    const auto before = cache.stats();
    EXPECT_GT(before.stream_entries, 0u) << name;
    ASSERT_TRUE(run_item(w.items[0], rec, 0).ok) << name;
    const auto after = cache.stats();
    EXPECT_EQ(after.stream_entries, before.stream_entries) << name;
    EXPECT_EQ(after.meta_entries, before.meta_entries) << name;
  }
  cache.clear();
}

TEST(PaperError, MeanAbsoluteRelativeError) {
  EXPECT_DOUBLE_EQ(paper_err_pct({150, 205, 345, 1280}), 0.0);
  // +10 % and -10 % on two of four anchors: 20 / 4 = 5 %.
  EXPECT_NEAR(paper_err_pct({165, 184.5, 345, 1280}), 5.0, 1e-12);
  EXPECT_THROW((void)paper_err_pct({150, 205}), std::invalid_argument);
  ASSERT_EQ(paper_anchors().size(), 4u);
  EXPECT_EQ(paper_anchors()[3].level, mcm::video::H264Level::k52);
  EXPECT_EQ(paper_anchors()[3].channels, 8u);
}

TEST(Workloads, EveryNameBuildsAndFuzzFollowsTheSeed) {
  SpanRecorder rec;
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 1, rec);
    EXPECT_FALSE(w.items.empty()) << name;
    EXPECT_LE(w.clients * w.sim_workers, 2u) << name;  // at most two threads busy
  }
  const Workload a = make_workload("fuzz_certify", 1, rec);
  const Workload b = make_workload("fuzz_certify", 1, rec);
  const Workload c = make_workload("fuzz_certify", 2, rec);
  EXPECT_EQ(a.items[5].scenario, b.items[5].scenario);
  EXPECT_NE(a.items[5].scenario, c.items[5].scenario);
  for (const Item& it : a.items) EXPECT_EQ(it.scenario.sim_threads, 1u);
  EXPECT_THROW((void)make_workload("nope", 1, rec), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
