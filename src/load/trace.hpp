// Request-trace recording and replay.
//
// Text format, one request per line:
//
//     <arrival_ps> <R|W> 0x<addr-hex> [<source-id>]
//
// '#' starts a comment. Addresses are global (pre-interleaving) byte
// addresses; one line is one DRAM burst. The format is the interchange point
// for externally generated traces (e.g. from an instrumented encoder such as
// x264 run at the matching resolution) as well as for reproducing a captured
// use-case run bit-exactly. Parsing is strict: arrivals must be
// non-decreasing (equal timestamps are fine, going backwards is an ordering
// violation) and addresses must stay below 2^63 (bit 63 is the packed-stream
// write flag everywhere downstream); violations throw a line-numbered
// TraceError. The Ramulator-style and binary mcm trace formats live in
// workload/trace_format.hpp.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "load/source.hpp"

namespace mcm::load {

class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Largest representable trace address: bit 63 carries the write flag in the
/// packed request word (load::pack_request), so global byte
/// addresses must stay below it in every trace format.
inline constexpr std::uint64_t kMaxTraceAddr = (std::uint64_t{1} << 63) - 1;

/// Serialize requests, one per line.
void write_trace(std::ostream& out, const std::vector<ctrl::Request>& requests);

/// Parse a trace; throws TraceError with a line number on malformed input.
[[nodiscard]] std::vector<ctrl::Request> read_trace(std::istream& in);

/// Drain a TrafficSource into a request vector (records its exact output).
[[nodiscard]] std::vector<ctrl::Request> record_source(TrafficSource& src);

/// Replays a recorded trace. Arrival times in the trace are relative; the
/// whole trace shifts by set_start(). Pacing is supported: set_pacing(d)
/// rescales the trace's relative arrivals so the last request arrives at
/// start + d (a trace with no time spread is spread uniformly by index).
class TraceReplaySource final : public TrafficSource {
 public:
  explicit TraceReplaySource(std::vector<ctrl::Request> requests,
                             std::string name = "trace");

  [[nodiscard]] bool done() const override { return pos_ >= requests_.size(); }
  [[nodiscard]] ctrl::Request head() const override;
  void advance() override { ++pos_; }
  [[nodiscard]] std::uint64_t total_bytes() const override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  void set_start(Time t) override { start_ = t; }
  void set_pacing(Time duration) override { pace_duration_ = duration; }

  [[nodiscard]] std::size_t size() const { return requests_.size(); }

 private:
  std::vector<ctrl::Request> requests_;
  std::string name_;
  std::size_t pos_ = 0;
  Time start_ = Time::zero();
  Time pace_duration_ = Time::zero();
  Time span_ = Time::zero();  // largest relative arrival in the trace
};

}  // namespace mcm::load
