// MultiStreamSource: interleaves several sequential byte streams (reads and
// writes over surface windows) proportionally at a chunk granularity. A
// stage that copies one buffer into another is two streams interleaved at
// cache-line chunks - exactly the miss pattern an SMP cache produces for a
// streaming kernel. Streams whose volume exceeds their window wrap around
// (e.g. the encoder makes six passes over the reference area).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/source.hpp"

namespace mcm::load {

struct StreamSpec {
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;   // total volume to transfer
  std::uint64_t window = 0;  // wrap window; 0 means = bytes
  bool is_write = false;
  std::uint16_t source_id = 0;
};

class MultiStreamSource final : public TrafficSource {
 public:
  /// `chunk_bytes` is the interleave granularity between streams (default:
  /// one 64 B cache line); `burst_bytes` the request size (DRAM burst).
  MultiStreamSource(std::string name, std::vector<StreamSpec> streams,
                    std::uint32_t chunk_bytes = 64, std::uint32_t burst_bytes = 16);

  [[nodiscard]] bool done() const override { return remaining_ == 0; }
  [[nodiscard]] ctrl::Request head() const override;
  void advance() override;
  [[nodiscard]] std::uint64_t total_bytes() const override { return total_; }
  [[nodiscard]] std::string_view name() const override { return name_; }
  void set_start(Time t) override { start_ = t; }

  /// Optional pacing: spread request arrival times uniformly (by progress)
  /// over [start, start + duration] instead of all-at-start.
  void set_pacing(Time duration) override { pace_duration_ = duration; }

  /// Bulk drain: one run per chunk, or one more for each window wrap
  /// inside it.
  void append_packed(PackedRuns& out) override;

 private:
  struct StreamState {
    StreamSpec spec;
    std::uint64_t cursor = 0;  // bytes issued
  };

  void select_stream();

  std::string name_;
  std::vector<StreamState> streams_;
  std::uint32_t chunk_;
  std::uint32_t burst_;
  std::uint64_t total_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t remaining_ = 0;
  std::size_t current_ = 0;
  std::uint64_t chunk_left_ = 0;
  Time start_ = Time::zero();
  Time pace_duration_ = Time::zero();
};

}  // namespace mcm::load
