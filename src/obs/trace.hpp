// Structured trace: an opt-in, low-overhead JSONL event stream of DRAM
// commands (ACT/RD/WR/PRE/REF/PDE/PDX/SRE/SRX with cycle timestamps and
// channel/bank/row) and request lifecycle spans (arrival -> first command ->
// data end). The controller writes through the abstract `TraceWriter`
// interface; the hot-path cost of a *disabled* writer is one null-pointer
// check in the controller.
//
// Two writers exist:
//  - `TraceSink` streams straight to an ostream through a fixed-capacity
//    staging buffer (the original single-threaded behavior).
//  - `TraceSpool` accumulates events in memory, one spool per channel, for
//    the state-machine feed; `merge_trace_spools` then emits one JSONL
//    stream in canonical (time, channel, per-channel sequence) order.
//
// Schema (one JSON object per line, schema id "mcm.trace/v1"):
//   {"type":"meta","schema":"mcm.trace/v1","version":1}
//   {"type":"cmd","ch":0,"t_ps":2500,"cmd":"ACT","bank":1,"row":42}
//   {"type":"req","ch":0,"op":"RD","addr":4096,"arrival_ps":0,
//    "first_cmd_ps":2500,"done_ps":30000,"latency_ps":30000,"row_hit":0}
#pragma once

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "dram/command.hpp"

namespace mcm::obs {

struct TraceEvent {
  // Packed into 56 bytes: every spool and golden-model event vector holds
  // one per command edge or request span. The narrow fields go first; with
  // them last, fuzz_certify ran about 10 % slower on a 4-core Xeon.
  enum class Kind : std::uint8_t { kCommand, kSpan } kind = Kind::kCommand;
  dram::Command cmd = dram::Command::kActivate;  // kCommand
  bool is_write = false;                         // kSpan
  bool row_hit = false;                          // kSpan
  std::uint32_t channel = 0;
  // kCommand:
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  Time at = Time::zero();
  // kSpan:
  Time arrival = Time::zero();
  Time first_cmd = Time::zero();
  Time done = Time::zero();
  std::uint64_t addr = 0;

  /// Timestamp used for canonical cross-channel ordering: command issue
  /// edge for commands, data-end for request spans.
  [[nodiscard]] Time order_time() const {
    return kind == Kind::kCommand ? at : done;
  }
};
static_assert(sizeof(TraceEvent) == 56, "TraceEvent layout grew");

/// Abstract event consumer the controller traces into.
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;

  /// One DRAM command edge on `channel`.
  virtual void command(std::uint32_t channel, Time at, dram::Command cmd,
                       std::uint32_t bank, std::uint32_t row) = 0;

  /// One request lifecycle span on `channel`.
  virtual void span(std::uint32_t channel, std::uint64_t addr, bool is_write,
                    Time arrival, Time first_cmd, Time done, bool row_hit) = 0;
};

/// Write the schema meta line that must open every trace stream.
void write_trace_meta(std::ostream& out);

/// Format one event as its JSONL line (newline included).
void write_trace_event(std::ostream& out, const TraceEvent& e);

/// Streams events to an ostream in emission order through a fixed staging
/// buffer; flushes when the buffer fills and on destruction.
class TraceSink final : public TraceWriter {
 public:
  /// `buffer_events` bounds the in-memory staging area; the sink flushes to
  /// `out` whenever it fills (and on destruction).
  explicit TraceSink(std::ostream& out, std::size_t buffer_events = 4096);
  ~TraceSink() override;

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void command(std::uint32_t channel, Time at, dram::Command cmd,
               std::uint32_t bank, std::uint32_t row) override;
  void span(std::uint32_t channel, std::uint64_t addr, bool is_write,
            Time arrival, Time first_cmd, Time done, bool row_hit) override;

  /// Format and write out all buffered events.
  void flush();

  [[nodiscard]] std::uint64_t events_recorded() const { return events_; }

 private:
  std::ostream& out_;
  std::vector<TraceEvent> buf_;
  std::size_t capacity_;
  std::uint64_t events_ = 0;
};

/// Accumulates one channel's events in memory (emission order). Not
/// thread-safe; each channel gets its own spool.
class TraceSpool final : public TraceWriter {
 public:
  void command(std::uint32_t channel, Time at, dram::Command cmd,
               std::uint32_t bank, std::uint32_t row) override;
  void span(std::uint32_t channel, std::uint64_t addr, bool is_write,
            Time arrival, Time first_cmd, Time done, bool row_hit) override;

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t events_recorded() const { return events_.size(); }

  /// Make room for `n` events up front, so a caller that knows its event
  /// count roughly does not pay for the vector's repeated regrowth.
  void reserve(std::size_t n) { events_.reserve(n); }

  /// Hand the recorded events over in emission order. The spool is empty
  /// afterwards and keeps recording.
  [[nodiscard]] std::vector<TraceEvent> take_events() {
    return std::exchange(events_, {});
  }

 private:
  std::vector<TraceEvent> events_;
};

/// Merge per-channel spools into one JSONL stream (meta line first) sorted
/// by (order_time, channel, per-channel emission sequence). Spool `i` is
/// treated as channel `i` for tie-breaking.
void merge_trace_spools(const std::vector<const TraceSpool*>& spools,
                        std::ostream& out);

}  // namespace mcm::obs
