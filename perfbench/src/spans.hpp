// In-memory span recorder for the traced benchmark pass. The benchmark wraps
// its own calls into each module's public functions in a ScopedSpan; every
// span keeps its name, start, end (steady clock, ns since the recorder was
// created), the span that was open on the same thread when it began (its
// parent), and the id of the work item it belongs to. Spans stay in memory
// and are written out once, when the run ends. With the recorder disabled a
// ScopedSpan costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list; -1 = root
  std::uint64_t item = 0;    // work-item id shared by one item's spans
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Open a span on the calling thread; returns its index.
  std::int64_t open(std::string name, std::uint64_t item);
  /// Close span `id` (must be the innermost open span of this thread).
  void close(std::int64_t id);

  /// Completed and open spans, in the order they were opened.
  [[nodiscard]] std::vector<Span> snapshot() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = false;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span on a recorder (no-op when the recorder is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t item)
      : rec_(rec), id_(rec.enabled() ? rec.open(std::move(name), item) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-name totals over a span list.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Durations (ms) of every span called `name`.
[[nodiscard]] std::vector<double> durations_ms(const std::vector<Span>& spans,
                                               const std::string& name);

}  // namespace perfbench
