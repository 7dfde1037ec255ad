#include "load/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "load/encoder_pattern_source.hpp"
#include "load/multi_stream_source.hpp"
#include "load/usecase_sources.hpp"
#include "multichannel/memory_system.hpp"

namespace mcm::load {
namespace {

std::vector<ctrl::Request> sample_requests() {
  return {
      {0x1000, false, Time{0}, 1},
      {0x2010, true, Time{2500}, 2},
      {0xdeadbeef0, false, Time{123456789}, 0},
  };
}

TEST(Trace, RoundTripsThroughText) {
  const auto original = sample_requests();
  std::stringstream ss;
  write_trace(ss, original);
  const auto parsed = read_trace(ss);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].addr, original[i].addr);
    EXPECT_EQ(parsed[i].is_write, original[i].is_write);
    EXPECT_EQ(parsed[i].arrival, original[i].arrival);
    EXPECT_EQ(parsed[i].source, original[i].source);
  }
}

TEST(Trace, IgnoresCommentsAndBlankLines) {
  std::stringstream ss("# header\n\n0 R 0x10 3\n   \n# tail\n");
  const auto parsed = read_trace(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].addr, 0x10u);
  EXPECT_EQ(parsed[0].source, 3);
}

TEST(Trace, SourceFieldOptional) {
  std::stringstream ss("100 W 0xabc\n");
  const auto parsed = read_trace(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].is_write);
  EXPECT_EQ(parsed[0].source, 0);
}

TEST(Trace, MalformedLinesThrowWithLineNumber) {
  std::stringstream bad1("0 X 0x10\n");
  EXPECT_THROW((void)read_trace(bad1), TraceError);
  std::stringstream bad2("0 R 0x10\nnot a line\n");
  try {
    (void)read_trace(bad2);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Trace, RecordSourceCapturesExactStream) {
  MultiStreamSource src("s", {{0x100, 64, 0, false, 7}, {0x1000, 64, 0, true, 8}});
  const auto recorded = record_source(src);
  EXPECT_EQ(recorded.size(), 8u);  // 128 B / 16 B bursts
  EXPECT_FALSE(recorded.front().is_write);
}

TEST(Trace, ReplayMatchesOriginalRunExactly) {
  // Record the camera stage of the 720p use case, replay it through a
  // memory system twice (original source vs trace), and compare stats.
  video::UseCaseParams p;
  p.level = video::H264Level::k31;
  const video::UseCaseModel model(p);
  const video::SurfaceLayout layout(model);

  auto run = [](TrafficSource& src) {
    multichannel::SystemConfig cfg;
    cfg.channels = 2;
    multichannel::MemorySystem sys(cfg);
    for (; !src.done(); src.advance()) sys.push(src.head());
    const Time last = sys.drain();
    return std::pair{last, sys.stats()};
  };

  auto sources1 = build_stage_sources(model, layout);
  auto& original = *sources1[0];
  auto sources2 = build_stage_sources(model, layout);
  auto recorded = record_source(*sources2[0]);

  // Round-trip through the text format too.
  std::stringstream ss;
  write_trace(ss, recorded);
  TraceReplaySource replay(read_trace(ss), "camera");

  const auto [t1, s1] = run(original);
  const auto [t2, s2] = run(replay);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(s1.bytes, s2.bytes);
  EXPECT_EQ(s1.row_hits, s2.row_hits);
  EXPECT_EQ(s1.activates, s2.activates);
}

TEST(Trace, ReplayShiftsByStart) {
  TraceReplaySource replay({{0x10, false, Time{100}, 0}}, "t");
  replay.set_start(Time{1000});
  EXPECT_EQ(replay.head().arrival, Time{1100});
}

TEST(Trace, RejectsBackwardsArrivalsWithLineNumber) {
  std::stringstream ss("0 R 0x10\n500 W 0x20\n400 R 0x30\n");
  try {
    (void)read_trace(ss);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("backwards"), std::string::npos) << what;
  }
}

TEST(Trace, EqualArrivalsAreFine) {
  std::stringstream ss("100 R 0x10\n100 W 0x20\n");
  EXPECT_EQ(read_trace(ss).size(), 2u);
}

TEST(Trace, RejectsNegativeArrival) {
  std::stringstream ss("-5 R 0x10\n");
  EXPECT_THROW((void)read_trace(ss), TraceError);
}

TEST(Trace, RejectsAddressesWithBit63Set) {
  std::stringstream ss("0 R 0x8000000000000000\n");
  try {
    (void)read_trace(ss);
    FAIL() << "expected TraceError";
  } catch (const TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  std::stringstream ok("0 R 0x7fffffffffffffff\n");
  EXPECT_EQ(read_trace(ok).size(), 1u);  // kMaxTraceAddr itself is legal
}

TEST(Trace, RandomStreamsRoundTripExactly) {
  // Property test: any ordered request stream survives write -> read
  // unchanged (arrivals, directions, addresses, sources).
  Rng rng(0xC0FFEE);
  std::vector<ctrl::Request> original;
  std::int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    ctrl::Request r;
    t += static_cast<std::int64_t>(rng.next_below(10'000));
    r.arrival = Time{t};
    r.addr = rng.next_u64() & kMaxTraceAddr;
    r.is_write = rng.next_below(2) == 1;
    r.source = static_cast<std::uint16_t>(rng.next_below(16));
    original.push_back(r);
  }
  std::stringstream ss;
  write_trace(ss, original);
  const auto parsed = read_trace(ss);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].addr, original[i].addr);
    EXPECT_EQ(parsed[i].is_write, original[i].is_write);
    EXPECT_EQ(parsed[i].arrival, original[i].arrival);
    EXPECT_EQ(parsed[i].source, original[i].source);
  }
}

TEST(Trace, ReplayPacingRescalesRecordedTimeAxis) {
  // Trace spans 1000 ps; pacing over 10000 ps scales arrivals 10x.
  TraceReplaySource replay(
      {{0x10, false, Time{0}, 0}, {0x20, false, Time{400}, 0},
       {0x30, false, Time{1000}, 0}},
      "t");
  replay.set_pacing(Time{10'000});
  replay.set_start(Time{100});
  EXPECT_EQ(replay.head().arrival, Time{100});
  replay.advance();
  EXPECT_EQ(replay.head().arrival, Time{4100});
  replay.advance();
  EXPECT_EQ(replay.head().arrival, Time{10'100});
}

TEST(Trace, ReplayPacingSpreadsZeroSpanTracesByIndex) {
  // All arrivals at 0 (e.g. a ramulator import): spread uniformly.
  TraceReplaySource replay(
      {{0x10, false, Time{0}, 0}, {0x20, false, Time{0}, 0},
       {0x30, false, Time{0}, 0}},
      "t");
  replay.set_pacing(Time{1000});
  EXPECT_EQ(replay.head().arrival, Time{0});
  replay.advance();
  EXPECT_EQ(replay.head().arrival, Time{500});
  replay.advance();
  EXPECT_EQ(replay.head().arrival, Time{1000});
}

TEST(Trace, UnsupportedPacingWarnsAndLeavesArrivalsAlone) {
  // EncoderPatternSource does not override set_pacing: the base class logs a
  // one-shot warning and every arrival stays at the stage start, however
  // far the source advances.
  video::EncoderAccessParams p;
  p.resolution = video::k720p;
  p.ref_frames = 1;
  p.ref_base = 1ull << 24;
  p.recon_base = 1ull << 27;
  p.max_macroblocks = 4;
  EncoderPatternSource src("enc", p);
  const Time start = Time::from_us(3.0);
  src.set_start(start);
  src.set_pacing(Time{1'000'000});
  src.set_pacing(Time{2'000'000});  // second call must not warn again
  int checked = 0;
  for (; !src.done() && checked < 64; src.advance(), ++checked) {
    ASSERT_EQ(src.head().arrival, start) << "request " << checked;
  }
  EXPECT_EQ(checked, 64);
}

}  // namespace
}  // namespace mcm::load
