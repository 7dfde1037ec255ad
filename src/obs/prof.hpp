// Self-profiling: near-zero-overhead scoped phase timers and contention
// counters for the engine itself (host-side cost structure), as opposed to
// the *simulated* quantities in obs/metrics. Recording is off by default;
// the cost of a disabled instrumentation point is one relaxed atomic load
// and a predictable branch. Enable process-wide with MCM_PROF=1 or at
// runtime with prof::set_enabled(true) (FrameSimOptions::profile does this
// for one run).
//
// Model:
//  - A *phase* is an interned hierarchical name ("engine/feed",
//    "sim/feed", "verify/compare"). Ids are stable for the process lifetime.
//  - `ScopedTimer` records an RAII span (start/duration + nesting, so self
//    time = wall minus enclosed spans) into a per-thread spool. Use it for
//    coarse phases only - every span costs two steady_clock reads.
//  - `tally(phase, dur_ns, calls)` adds a measured duration to a phase
//    accumulator without emitting a span: the hot-loop form used for
//    durations the engine times itself (per-stage feed and drain walls).
//  - `count(phase, n)` bumps a pure event counter (requests retired,
//    cache hits).
//  - Spools are merged into one `ProfileReport` by `collect()`: per-phase
//    call counts, wall/self time, max, and log2-interpolated p50/p95, plus
//    the raw spans for Chrome/Perfetto export. Aggregation is pure integer
//    summation keyed by phase name, so a report is deterministic for a
//    given set of recorded events regardless of thread scheduling.
//
// Profiling never feeds back into simulation decisions, so simulated
// results (reports, traces, stats) are byte-identical with recording on.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace mcm::obs::prof {

using PhaseId = std::uint32_t;

/// Log2 duration buckets per phase: bucket b counts samples in
/// [2^(b-1), 2^b) (bucket 0: values <= 1). 48 buckets cover ~78 hours in
/// nanoseconds.
inline constexpr std::size_t kLogBuckets = 48;

namespace detail {
std::atomic<bool>& enabled_flag();
}  // namespace detail

/// True when recording is on (MCM_PROF=1 at first query, or set_enabled).
[[nodiscard]] inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

/// Runtime override; latches until changed again.
void set_enabled(bool on);

/// Pure read of MCM_PROF (no latch): "1"/"on"/"ON" request profiling.
[[nodiscard]] bool env_requests_profiling();

/// Intern a phase name; thread-safe, id stable for the process lifetime.
[[nodiscard]] PhaseId phase_id(std::string_view name);

/// steady_clock now, in nanoseconds since an arbitrary epoch.
[[nodiscard]] std::int64_t now_ns();

/// Add a self-measured duration (ns) to `phase`: `calls` episodes totalling
/// `dur_ns`. No span is emitted. No-op while disabled.
void tally(PhaseId phase, std::int64_t dur_ns, std::uint64_t calls = 1);

/// Bump a pure event counter. No-op while disabled.
void count(PhaseId phase, std::uint64_t delta);

/// RAII span: records begin/end into the calling thread's spool and
/// maintains the nesting stack for self-time attribution. Near-free when
/// profiling is disabled (one relaxed load + branch).
class ScopedTimer {
 public:
  explicit ScopedTimer(PhaseId phase) {
    if (enabled()) {
      active_ = true;
      begin(phase);
    }
  }
  ~ScopedTimer() {
    if (active_) end();
  }
  /// Close the span before scope exit (idempotent).
  void stop() {
    if (active_) {
      active_ = false;
      end();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void begin(PhaseId phase);
  void end();
  bool active_ = false;
};

/// One aggregated phase row of a collected profile.
struct ProfilePhase {
  std::string name;
  std::uint64_t calls = 0;
  std::int64_t wall_ns = 0;  // sum of span/tally durations
  std::int64_t self_ns = 0;  // wall minus enclosed spans (== wall for tallies)
  std::int64_t max_ns = 0;   // largest single sample
  double p50 = 0.0;          // log2-interpolated percentiles of samples
  double p95 = 0.0;          // (ns)
};

/// One recorded span (Chrome-trace "complete event").
struct ProfileSpan {
  std::uint32_t tid = 0;     // spool registration index
  std::uint32_t phase = 0;   // index into ProfileReport::phases
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

struct ProfileReport {
  std::vector<ProfilePhase> phases;  // sorted by name
  std::vector<ProfileSpan> spans;    // sorted by (start, tid, emission seq)
  std::vector<std::pair<std::uint32_t, std::string>> thread_labels;
  std::uint64_t dropped_spans = 0;

  [[nodiscard]] const ProfilePhase* find(std::string_view name) const;

  /// mcm.prof/v1 document; `with_spans` embeds the span list so the file
  /// is self-contained for `mcm_prof trace` / Perfetto conversion.
  [[nodiscard]] JsonValue to_json(bool with_spans = true) const;

  /// Chrome trace_events JSON ({"traceEvents": [...]}) loadable in
  /// chrome://tracing and ui.perfetto.dev.
  void write_chrome_trace(std::ostream& out) const;
};

/// Merge every thread spool into one report. `reset` clears all recorded
/// data (phase ids and spool registrations persist). Call only while no
/// other thread is actively recording - the recording fast path is
/// deliberately lock-free.
[[nodiscard]] ProfileReport collect(bool reset = true);

/// Parse an mcm.prof/v1 document back into a report (mcm_prof CLI, tests).
/// Returns false on schema mismatch.
bool profile_from_json(const JsonValue& doc, ProfileReport& out);

}  // namespace mcm::obs::prof
