#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace mcm::obs {
namespace {

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(TraceSink, EmitsMetaLineOnConstruction) {
  std::ostringstream out;
  { TraceSink sink(out); }
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], R"({"type":"meta","schema":"mcm.trace/v1","version":1})");
}

TEST(TraceSink, GoldenCommandAndSpanLines) {
  std::ostringstream out;
  {
    TraceSink sink(out);
    sink.command(0, Time::from_ns(2.5), dram::Command::kActivate, 1, 42);
    sink.command(3, Time::from_ns(10.0), dram::Command::kRead, 1, 0);
    sink.command(0, Time::zero(), dram::Command::kPowerDownEnter, 0, 0);
    sink.span(/*channel=*/0, /*addr=*/4096, /*is_write=*/false,
              /*arrival=*/Time::zero(), /*first_cmd=*/Time::from_ns(2.5),
              /*done=*/Time::from_ns(30.0), /*row_hit=*/false);
    sink.span(1, 128, true, Time::from_ns(1.0), Time::from_ns(2.0),
              Time::from_ns(8.0), true);
    EXPECT_EQ(sink.events_recorded(), 5u);
  }
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[1],
            R"({"type":"cmd","ch":0,"t_ps":2500,"cmd":"ACT","bank":1,"row":42})");
  EXPECT_EQ(lines[2],
            R"({"type":"cmd","ch":3,"t_ps":10000,"cmd":"RD","bank":1,"row":0})");
  EXPECT_EQ(lines[3],
            R"({"type":"cmd","ch":0,"t_ps":0,"cmd":"PDE","bank":0,"row":0})");
  EXPECT_EQ(lines[4],
            R"({"type":"req","ch":0,"op":"RD","addr":4096,"arrival_ps":0,)"
            R"("first_cmd_ps":2500,"done_ps":30000,"latency_ps":30000,"row_hit":0})");
  EXPECT_EQ(lines[5],
            R"({"type":"req","ch":1,"op":"WR","addr":128,"arrival_ps":1000,)"
            R"("first_cmd_ps":2000,"done_ps":8000,"latency_ps":7000,"row_hit":1})");
}

TEST(TraceSink, BuffersUntilCapacityThenFlushes) {
  std::ostringstream out;
  TraceSink sink(out, /*buffer_events=*/2);
  sink.command(0, Time::zero(), dram::Command::kActivate, 0, 0);
  // One buffered event: only the meta line is out so far.
  EXPECT_EQ(lines_of(out.str()).size(), 1u);
  sink.command(0, Time::zero(), dram::Command::kPrecharge, 0, 0);
  // Capacity reached: both events flushed.
  EXPECT_EQ(lines_of(out.str()).size(), 3u);
  sink.command(0, Time::zero(), dram::Command::kRefresh, 0, 0);
  EXPECT_EQ(lines_of(out.str()).size(), 3u);
  sink.flush();
  EXPECT_EQ(lines_of(out.str()).size(), 4u);
  EXPECT_EQ(sink.events_recorded(), 3u);
}

TEST(TraceSink, EveryLineIsAFlatJsonObject) {
  std::ostringstream out;
  {
    TraceSink sink(out, 1);
    for (int i = 0; i < 16; ++i) {
      sink.command(static_cast<std::uint32_t>(i % 4), Time::from_ns(i),
                   i % 2 == 0 ? dram::Command::kRead : dram::Command::kWrite,
                   static_cast<std::uint32_t>(i % 8), 7);
    }
  }
  for (const auto& line : lines_of(out.str())) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
  }
}

TEST(MergeTraceSpools, SameSpoolTiesKeepEmissionOrder) {
  // Two commands and a span on one spool, all at the same order_time. With
  // time and channel equal, the per-channel emission sequence is the final
  // tie-break, so the merged stream replays the spool verbatim.
  TraceSpool sp;
  sp.command(0, Time::from_ns(5.0), dram::Command::kActivate, 1, 10);
  sp.command(0, Time::from_ns(5.0), dram::Command::kRead, 1, 10);
  sp.span(0, 256, false, Time::zero(), Time::from_ns(5.0), Time::from_ns(5.0),
          true);

  std::ostringstream out;
  merge_trace_spools({&sp}, out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find(R"("cmd":"ACT")"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("cmd":"RD")"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("type":"req")"), std::string::npos);
}

TEST(MergeTraceSpools, CrossSpoolTiesOrderByChannel) {
  // Equal order_time across spools: spool index (= channel) breaks the tie,
  // so channel 0's event precedes channel 1's even though spool 1 is listed
  // with an earlier-emitted event.
  TraceSpool sp0;
  TraceSpool sp1;
  sp1.command(1, Time::from_ns(7.0), dram::Command::kWrite, 0, 3);
  sp0.command(0, Time::from_ns(7.0), dram::Command::kRead, 0, 3);

  std::ostringstream out;
  merge_trace_spools({&sp0, &sp1}, out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find(R"("ch":0)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("ch":1)"), std::string::npos);
}

TEST(MergeTraceSpools, TimeOrderDominatesChannelAndSequence) {
  // A later-emitted but earlier-timestamped event on a higher channel must
  // still come out first: order_time is the primary key.
  TraceSpool sp0;
  TraceSpool sp1;
  sp0.command(0, Time::from_ns(20.0), dram::Command::kActivate, 0, 0);
  sp1.command(1, Time::from_ns(10.0), dram::Command::kActivate, 0, 0);

  std::ostringstream out;
  merge_trace_spools({&sp0, &sp1}, out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find(R"("t_ps":10000)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("t_ps":20000)"), std::string::npos);
}

TEST(TraceSpool, TakeEventsHandsOverInOrder) {
  TraceSpool sp;
  sp.reserve(8);
  sp.command(2, Time::from_ns(5.0), dram::Command::kActivate, 1, 10);
  sp.span(2, 256, true, Time::zero(), Time::from_ns(5.0), Time::from_ns(9.0),
          false);
  sp.command(2, Time::from_ns(3.0), dram::Command::kPrecharge, 1, 0);

  const std::vector<TraceEvent> taken = sp.take_events();
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].kind, TraceEvent::Kind::kCommand);
  EXPECT_EQ(taken[0].cmd, dram::Command::kActivate);
  EXPECT_EQ(taken[0].row, 10u);
  EXPECT_EQ(taken[1].kind, TraceEvent::Kind::kSpan);
  EXPECT_EQ(taken[1].addr, 256u);
  EXPECT_TRUE(taken[1].is_write);
  EXPECT_EQ(taken[1].done, Time::from_ns(9.0));
  EXPECT_EQ(taken[2].cmd, dram::Command::kPrecharge);
  EXPECT_EQ(taken[2].at, Time::from_ns(3.0));
  for (const TraceEvent& e : taken) EXPECT_EQ(e.channel, 2u);

  // Empty afterwards, and it keeps recording from scratch.
  EXPECT_TRUE(sp.events().empty());
  EXPECT_EQ(sp.events_recorded(), 0u);
  sp.command(2, Time::from_ns(11.0), dram::Command::kRefresh, 0, 0);
  ASSERT_EQ(sp.events().size(), 1u);
  EXPECT_EQ(sp.events()[0].cmd, dram::Command::kRefresh);
  EXPECT_EQ(taken.size(), 3u);
}

}  // namespace
}  // namespace mcm::obs
