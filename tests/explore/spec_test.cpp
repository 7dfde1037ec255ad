#include "explore/spec.hpp"

#include <gtest/gtest.h>

#include <set>

namespace mcm::explore {
namespace {

TEST(ExperimentSpec, PaperGridMatchesTheEvaluation) {
  const auto spec = ExperimentSpec::paper_grid();
  EXPECT_EQ(spec.size(), 5u * 4u * 6u);  // levels x channels x frequencies
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 120u);
  // Fixed nesting order: level outermost, then channels, then frequency.
  EXPECT_EQ(points[0].level, video::H264Level::k31);
  EXPECT_EQ(points[0].channels, 1u);
  EXPECT_EQ(points[0].freq_mhz, 200.0);
  EXPECT_EQ(points[1].freq_mhz, 266.0);
  EXPECT_EQ(points[6].channels, 2u);
  EXPECT_EQ(points[24].level, video::H264Level::k32);
  // Paper-default policies on every point.
  for (const auto& p : points) {
    EXPECT_EQ(p.page_policy, ctrl::PagePolicy::kOpen);
    EXPECT_EQ(p.scheduler, ctrl::SchedulerPolicy::kFrFcfs);
    EXPECT_EQ(p.interleave_bytes, 16u);
    EXPECT_EQ(p.mux, ctrl::AddressMux::kRBC);
  }
}

TEST(ExperimentSpec, FromConfigParsesAxesAndBase) {
  const auto cfg = Config::from_string(R"(
    grid.levels = 3.1, 4.0
    grid.channels = 2, 4
    grid.freq_mhz = 266, 400
    grid.page_policy = open, closed
    grid.scheduler = fcfs
    grid.interleave_bytes = 64
    grid.address_mux = RBC-XOR
    base.seed = 7
    base.frames = 2
    base.queue_depth = 16
    # orchestrator keys are ignored by the spec parser
    screen.enabled = true
    threads = 3
  )");
  const auto spec = ExperimentSpec::from_config(cfg);
  EXPECT_EQ(spec.levels,
            (std::vector{video::H264Level::k31, video::H264Level::k40}));
  EXPECT_EQ(spec.channels, (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(spec.freq_mhz, (std::vector<double>{266, 400}));
  EXPECT_EQ(spec.page_policies,
            (std::vector{ctrl::PagePolicy::kOpen, ctrl::PagePolicy::kClosed}));
  EXPECT_EQ(spec.schedulers, (std::vector{ctrl::SchedulerPolicy::kFcfs}));
  EXPECT_EQ(spec.interleave_bytes, (std::vector<std::uint32_t>{64}));
  EXPECT_EQ(spec.address_muxes, (std::vector{ctrl::AddressMux::kRBCXor}));
  EXPECT_EQ(spec.base_seed, 7u);
  EXPECT_EQ(spec.base.sim.frames, 2);
  EXPECT_EQ(spec.base.base.controller.queue_depth, 16u);
  EXPECT_EQ(spec.size(), 2u * 2u * 2u * 2u);
}

TEST(ExperimentSpec, LevelsAllKeyword) {
  const auto spec =
      ExperimentSpec::from_config(Config::from_string("grid.levels = all"));
  EXPECT_EQ(spec.levels.size(), video::kAllLevels.size());
}

TEST(ExperimentSpec, RejectsUnknownAndMalformedKeys) {
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("grid.voltage = 1.2")),
               ConfigError);
  EXPECT_THROW(
      ExperimentSpec::from_config(Config::from_string("base.bogus = 1")),
      ConfigError);
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("grid.levels = 9.9")),
               ConfigError);
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("grid.channels = 2,,4")),
               ConfigError);
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("grid.channels = -2")),
               ConfigError);
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("grid.page_policy = half-open")),
               ConfigError);
  // A negative depth must not wrap to ~4e9 slots; zero is no queue at all.
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("base.queue_depth = -3")),
               ConfigError);
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("base.queue_depth = 0")),
               ConfigError);
  // A run needs at least one frame; a negative count must not reach the
  // simulator as a huge allocation or a division by zero.
  EXPECT_THROW(ExperimentSpec::from_config(Config::from_string("base.frames = 0")),
               ConfigError);
  EXPECT_THROW(
      ExperimentSpec::from_config(Config::from_string("base.frames = -2")),
      ConfigError);
  EXPECT_THROW(
      ExperimentSpec::from_config(Config::from_string("base.frames = 1.5")),
      ConfigError);
  // Negative counts must not wrap (refresh_postpone_max is unsigned) or be
  // silently accepted (gop_length).
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("base.refresh_postpone_max = -1")),
               ConfigError);
  EXPECT_THROW(ExperimentSpec::from_config(
                   Config::from_string("base.gop_length = -1")),
               ConfigError);
  // Zero stays legal where it means something.
  const auto ok = ExperimentSpec::from_config(Config::from_string(
      "base.frames = 3\nbase.gop_length = 0\nbase.refresh_postpone_max = 0"));
  EXPECT_EQ(ok.base.sim.frames, 3);
  EXPECT_EQ(ok.base.sim.gop_length, 0);
  EXPECT_EQ(ok.base.base.controller.refresh_postpone_max, 0u);
}

// Every bad value raises ConfigError naming the field: values that used to
// wrap, crash at run time, or silently run something else.
TEST(ExperimentSpec, BadConfigsNameTheField) {
  const struct {
    const char* line;
    const char* field;
  } cases[] = {
      {"base.queue_depth = 0", "queue_depth"},
      {"base.queue_depth = 4294967312", "queue_depth"},
      {"base.queue_depth = -1", "queue_depth"},
      {"grid.channels = 0", "channels"},
      {"grid.channels = -1", "channels"},
      {"grid.channels = 4x", "channels"},
      {"grid.channels = 4294967297", "channels"},
      {"base.frames = 0", "frames"},
      {"base.gop_length = -1", "gop_length"},
      {"grid.freq_mhz = 600", "freq"},
      {"grid.freq_mhz = 0", "freq"},
      {"grid.interleave_bytes = 8", "interleave_bytes"},
      {"grid.interleave_bytes = -16", "interleave_bytes"},
      {"grid.scheduler = bogus", "scheduler"},
      {"grid.page_policy = half-open", "page_policy"},
      {"grid.address_mux = RBX", "address_mux"},
      {"grid.levels = 6.2", "levels"},
  };
  for (const auto& c : cases) {
    try {
      (void)ExperimentSpec::from_config(Config::from_string(c.line));
      ADD_FAILURE() << c.line << ": accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.line << ": " << e.what();
    }
  }
}

TEST(ExperimentSpec, AcceptsEveryVocabularySpelling) {
  const auto spec = ExperimentSpec::from_config(Config::from_string(R"(
    grid.levels = 3.1, 4.0, 4
    grid.scheduler = fcfs, FCFS, frfcfs, fr-fcfs, FR-FCFS
    grid.page_policy = open, CLOSED, Timeout
    grid.address_mux = rbc, BRC, RCB, rbc-xor
  )"));
  EXPECT_EQ(spec.levels, (std::vector{video::H264Level::k31, video::H264Level::k40,
                                      video::H264Level::k40}));
  EXPECT_EQ(spec.schedulers,
            (std::vector{ctrl::SchedulerPolicy::kFcfs, ctrl::SchedulerPolicy::kFcfs,
                         ctrl::SchedulerPolicy::kFrFcfs, ctrl::SchedulerPolicy::kFrFcfs,
                         ctrl::SchedulerPolicy::kFrFcfs}));
  EXPECT_EQ(spec.page_policies,
            (std::vector{ctrl::PagePolicy::kOpen, ctrl::PagePolicy::kClosed,
                         ctrl::PagePolicy::kTimeout}));
  EXPECT_EQ(spec.address_muxes,
            (std::vector{ctrl::AddressMux::kRBC, ctrl::AddressMux::kBRC,
                         ctrl::AddressMux::kRCB, ctrl::AddressMux::kRBCXor}));
}

TEST(ExperimentSpec, EmptyAxisRefusesToExpand) {
  ExperimentSpec spec;
  spec.channels.clear();
  EXPECT_EQ(spec.size(), 0u);
  EXPECT_THROW(static_cast<void>(spec.expand()), ConfigError);
}

TEST(ExplorePoint, SeedDerivesFromCoordinatesNotPosition) {
  const auto points = ExperimentSpec::paper_grid().expand();
  // All seeds distinct across the grid, none zero.
  std::set<std::uint64_t> seeds;
  for (const auto& p : points) {
    const std::uint64_t s = p.seed(1);
    EXPECT_NE(s, 0u);
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), points.size());

  // The same coordinates give the same seed regardless of which grid (or
  // position) they came from.
  ExperimentSpec small;
  small.levels = {video::H264Level::k40};
  small.channels = {4};
  small.freq_mhz = {400.0};
  const auto one = small.expand();
  ASSERT_EQ(one.size(), 1u);
  bool found = false;
  for (const auto& p : points) {
    if (p == one[0]) {
      EXPECT_EQ(p.seed(1), one[0].seed(1));
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Base seed feeds the chain.
  EXPECT_NE(one[0].seed(1), one[0].seed(2));
}

TEST(ExplorePoint, LabelNamesCoordinates) {
  ExplorePoint p;
  p.level = video::H264Level::k40;
  p.channels = 4;
  p.freq_mhz = 400.0;
  EXPECT_EQ(p.label(), "L4/4ch/400MHz");
  p.page_policy = ctrl::PagePolicy::kClosed;
  p.interleave_bytes = 64;
  EXPECT_EQ(p.label(), "L4/4ch/400MHz/closed/64B");
}

TEST(ExperimentSpec, SplitListTrimsAndRejectsEmpties) {
  EXPECT_EQ(split_list("a, b ,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list("one"), (std::vector<std::string>{"one"}));
  EXPECT_THROW(split_list(""), ConfigError);
  EXPECT_THROW(split_list("a,,b"), ConfigError);
  EXPECT_THROW(split_list("a,"), ConfigError);
}

}  // namespace
}  // namespace mcm::explore
