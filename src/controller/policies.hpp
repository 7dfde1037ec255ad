// Controller policy knobs evaluated in the paper and in our ablations.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/config.hpp"

namespace mcm::ctrl {

/// Row-buffer management. The paper's results use the open-page policy;
/// kTimeout is a Section V "novel policies" extension that treats a row as
/// closed once it has idled past page_timeout_cycles (an adaptive middle
/// ground between open and closed page).
enum class PagePolicy : std::uint8_t { kOpen, kClosed, kTimeout };

[[nodiscard]] constexpr std::string_view to_string(PagePolicy p) {
  switch (p) {
    case PagePolicy::kOpen: return "open";
    case PagePolicy::kClosed: return "closed";
    case PagePolicy::kTimeout: return "timeout";
  }
  return "?";
}

inline constexpr std::array kAllPagePolicies = {
    PagePolicy::kOpen, PagePolicy::kClosed, PagePolicy::kTimeout};

[[nodiscard]] constexpr std::optional<PagePolicy> parse_page_policy(
    std::string_view name) {
  return enum_by_name(name, kAllPagePolicies);
}

/// Request scheduling. FR-FCFS prefers row hits (and same-direction bursts,
/// to limit bus turnarounds); FCFS serves strictly in arrival order.
enum class SchedulerPolicy : std::uint8_t { kFcfs, kFrFcfs };

[[nodiscard]] constexpr std::string_view to_string(SchedulerPolicy s) {
  return s == SchedulerPolicy::kFcfs ? "FCFS" : "FR-FCFS";
}

inline constexpr std::array kAllSchedulers = {SchedulerPolicy::kFcfs,
                                              SchedulerPolicy::kFrFcfs};

/// Also accepts "frfcfs".
[[nodiscard]] constexpr std::optional<SchedulerPolicy> parse_scheduler(
    std::string_view name) {
  if (iequals(name, "frfcfs")) return SchedulerPolicy::kFrFcfs;
  return enum_by_name(name, kAllSchedulers);
}

struct ControllerConfig {
  PagePolicy page_policy = PagePolicy::kOpen;
  std::uint32_t page_timeout_cycles = 512;  // kTimeout: close after this idle
  SchedulerPolicy scheduler = SchedulerPolicy::kFrFcfs;
  std::uint32_t queue_depth = 16;

  /// Enter power-down after this many idle clock cycles (paper: "bank
  /// clusters go to power down states after the first idle clock cycle").
  /// Negative disables power-down entirely.
  int powerdown_idle_cycles = 1;

  /// Enter self refresh instead of power-down for idle gaps at least this
  /// many cycles long (all banks precharged; auto-refresh suppressed while
  /// inside). Negative disables self refresh - the paper's configuration.
  /// One of the Section V "novel policies" extensions.
  int selfrefresh_idle_cycles = -1;

  /// Postpone up to this many due refreshes while requests are pending,
  /// repaying the debt in idle gaps (DDR specs allow postponing several
  /// tREFI intervals). 0 = refresh immediately when due (paper baseline).
  std::uint32_t refresh_postpone_max = 0;

  /// Skip limit before the oldest request is forced (starvation guard).
  std::uint32_t max_skips = 128;

  /// Row-hit streaming fast path: serve head-of-queue runs of ready,
  /// same-direction row hits analytically in one step instead of walking the
  /// full per-request machinery. Bit-identical to the slow path (see
  /// docs/performance.md for the invariants); off = always slow path.
  bool stream_row_hits = true;

  /// Record the full DRAM command trace (tests / debugging; costs memory).
  bool record_trace = false;

  /// Reserve hint for the recorded command trace (entries). Only used when
  /// record_trace is set; avoids repeated growth reallocation on long runs.
  std::size_t trace_reserve = 4096;
};

}  // namespace mcm::ctrl
