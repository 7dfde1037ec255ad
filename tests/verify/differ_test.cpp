// Ownership and sizing in the differential harness: an Outcome owns the
// events it reports, whether they were copied or moved out of a reference
// run, and the per-channel event reservation only sizes the vectors, it
// never caps them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "load/stream_cache.hpp"
#include "obs/trace.hpp"
#include "verify/differ.hpp"
#include "verify/reference_model.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.kind == b.kind && a.cmd == b.cmd && a.is_write == b.is_write &&
         a.row_hit == b.row_hit && a.channel == b.channel && a.bank == b.bank &&
         a.row == b.row && a.at == b.at && a.arrival == b.arrival &&
         a.first_cmd == b.first_cmd && a.done == b.done && a.addr == b.addr;
}

void expect_same_events(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const std::vector<obs::TraceEvent>& ea = a.channels[c].events;
    const std::vector<obs::TraceEvent>& eb = b.channels[c].events;
    ASSERT_EQ(ea.size(), eb.size()) << "channel " << c;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      ASSERT_TRUE(same_event(ea[i], eb[i])) << "channel " << c << " event " << i;
    }
  }
}

/// 48 drawn scenarios: a third plain, a third with generator-sampled
/// stages, a third on heterogeneous device classes.
Scenario drawn(int i) {
  const auto seed = static_cast<std::uint64_t>(1000 + i);
  return random_scenario(seed, /*workload_generators=*/i % 3 == 1,
                         /*hetero_classes=*/i % 3 == 2);
}

TEST(Differ, ReferenceOutcomeFromCopyEqualsFromMove) {
  for (int i = 0; i < 48; ++i) {
    const Scenario s = drawn(i);
    RefRunOutput ref = run_reference(s);
    std::size_t recorded = 0;
    for (const RefChannelResult& rc : ref.channels) recorded += rc.events.size();

    // An lvalue is copied and left as it was; the moved-from run hands its
    // vectors over.
    const Outcome copied = reference_outcome(s, ref);
    std::size_t left = 0;
    for (const RefChannelResult& rc : ref.channels) left += rc.events.size();
    ASSERT_EQ(left, recorded) << "case " << i;
    const Outcome moved = reference_outcome(s, std::move(ref));

    EXPECT_EQ(outcome_to_json(copied).dump_string(),
              outcome_to_json(moved).dump_string())
        << "case " << i;
    expect_same_events(copied, moved);
    const auto mismatch = compare_outcomes(copied, moved);
    ASSERT_FALSE(mismatch.has_value()) << "case " << i << ": " << *mismatch;
  }
}

TEST(Differ, RunProductionIsRepeatable) {
  for (int i = 0; i < 48; ++i) {
    const Scenario s = drawn(i);
    const Outcome a = run_production(s);
    const Outcome b = run_production(s);
    EXPECT_EQ(outcome_to_json(a).dump_string(), outcome_to_json(b).dump_string())
        << "case " << i;
    expect_same_events(a, b);
    const auto mismatch = compare_outcomes(a, b);
    ASSERT_FALSE(mismatch.has_value()) << "case " << i << ": " << *mismatch;
  }
}

/// Closed page records exactly four events per request; power-down after
/// zero idle cycles and a 1 ms frame period add a REF and a power-down pair
/// for every refresh interval of the idle tail. Every channel therefore
/// records more than its reservation, and the vectors must grow past it on
/// both sides without losing an event.
TEST(Differ, ReservationIsNotACap) {
  Scenario s;
  s.channels = 2;
  s.page_policy = "closed";
  s.powerdown_idle_cycles = 0;
  s.period_ps = 1'000'000'000;
  for (int f = 0; f < 2; ++f) {
    ScenarioStage st{.name = "stage", .source = 0, .reqs = {}};
    for (std::uint64_t i = 0; i < 200; ++i) {
      st.reqs.push_back(load::CachedStage::pack(i * 4112 + f * 64, i % 3 == 0));
    }
    ScenarioFrame frame;
    frame.stages.push_back(std::move(st));
    s.frames.push_back(std::move(frame));
  }

  const Outcome prod = run_production(s);
  const Outcome ref = reference_outcome(s, run_reference(s));
  ASSERT_EQ(prod.channels.size(), 2u);
  for (const Outcome* o : {&prod, &ref}) {
    for (const ChannelOutcome& c : o->channels) {
      ASSERT_GT(c.route_count, 0u);
      EXPECT_GT(c.events.size(), event_reservation(c.route_count));
    }
  }
  const auto mismatch = compare_outcomes(prod, ref);
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  EXPECT_FALSE(diff_scenario(s).has_value());
}

}  // namespace
}  // namespace mcm::verify
