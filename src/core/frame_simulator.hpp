// FrameSimulator: runs the video recording use case against a multi-channel
// memory system and reports the paper's two headline measures - per-frame
// access time (Figs. 3 and 4) and average memory-subsystem power over the
// frame period (Fig. 5) - plus detailed command/row/energy statistics.
//
// Semantics follow the paper's load model (Section III): the processing
// chain is a state machine; each state (stage) issues its memory requests
// back-to-back, stages in data-dependency order, and the "total access time"
// of a frame is the time the memory subsystem needs to serve all of it. The
// tail of the frame period is idle: the power-down governor and refresh
// catch-up run there, which is what keeps multi-channel average power close
// to single-channel (Fig. 5's main observation).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/sharded_engine.hpp"
#include "load/usecase_sources.hpp"
#include "multichannel/memory_system.hpp"
#include "video/surfaces.hpp"
#include "video/usecase.hpp"

namespace mcm::obs {
class MetricsRegistry;
}  // namespace mcm::obs

namespace mcm::core {

/// How the use-case traffic is driven through the memory system.
enum class ExecutionMode : std::uint8_t {
  /// The paper's load model: one state machine, each stage's requests issued
  /// back-to-back, stages in order (display/audio volumes are stages too).
  kStateMachine,
  /// Extension: DisplayCtrl and audio run as concurrent paced masters (the
  /// display scans out continuously at 60 Hz) competing with the pipeline.
  kConcurrent,
};

struct FrameSimOptions {
  // Frames to simulate (stats averaged per frame); must be >= 1.
  int frames = 1;
  ExecutionMode mode = ExecutionMode::kStateMachine;
  load::LoadOptions load;
  double processing_margin = 0.15;  // paper Fig. 5: 15 % margin for data processing

  /// GOP structure: every gop_length-th frame is an I frame (no reference
  /// traffic). 0 or 1 = every frame predicted (the paper's steady state);
  /// must not be negative.
  int gop_length = 0;

  /// Ignored: every kStateMachine frame runs the one sequential feed. Only
  /// perfbench sets these; ROADMAP item 1 deletes them.
  unsigned sim_threads = 0;
  unsigned sim_chunk = 0;
  bool legacy_feed = false;

  /// When non-empty, stream the full DRAM command + request-span trace of
  /// the run to this file as JSONL (schema mcm.trace/v1). Empty = no
  /// tracing; the only per-command cost is a null-pointer check.
  std::string trace_path;
  std::size_t trace_buffer_events = 4096;

  /// When set, the memory system's full metric catalogue is published here
  /// after the run (per-channel, per-bank, interleaver, residency).
  obs::MetricsRegistry* metrics = nullptr;

  /// Self-profiling (obs/prof). `profile` force-enables the process-wide
  /// profiler for this run (MCM_PROF=1 in the environment does the same for
  /// every run). When prof_path is non-empty the accumulated profile is
  /// collected - and the global profiler reset - after the run and written
  /// there as mcm.prof/v1 JSON; prof_trace_path additionally writes a
  /// Chrome/Perfetto trace_events file. Profiling observes the host clock
  /// only and never alters simulated results.
  bool profile = false;
  std::string prof_path;
  std::string prof_trace_path;

  /// The one home of the run's range rules: the first failing field, or
  /// nullopt. Every front end calls it, and so does run().
  [[nodiscard]] std::optional<FieldError> validate() const;
};

struct StageResult {
  std::string name;
  Time completed;            // absolute completion time (first frame)
  std::uint64_t bytes = 0;
};

struct FrameSimResult {
  Time access_time;    // per-frame busy time (mean over frames)
  Time frame_period;   // real-time requirement (1/fps)
  Time window;         // total simulated window used for average power

  double total_power_mw = 0;      // DRAM + interface, averaged over window
  double dram_power_mw = 0;
  double interface_power_mw = 0;

  bool meets_realtime = false;              // access_time <= frame period
  bool meets_realtime_with_margin = false;  // with the processing margin

  std::uint64_t bytes_per_frame = 0;
  double achieved_bandwidth_bytes_per_s = 0;  // during the busy window
  double demand_bandwidth_bytes_per_s = 0;    // Table I load (bytes/s)

  multichannel::SystemStats stats;
  multichannel::SystemPowerReport power;
  std::vector<StageResult> stage_results;  // first simulated frame

  /// kConcurrent mode only: when the paced display/audio traffic finished
  /// (absolute time, last frame) - must stay within the refresh cadence -
  /// and its per-request service latency (display QoS).
  Time paced_last_done = Time::zero();
  Accumulator paced_latency_ns;

  /// Busy time of each simulated frame (GOP structures alternate I/P costs).
  std::vector<Time> per_frame_access;
};

/// Fill `r`'s timing, real-time verdicts (against `margin`), bandwidth,
/// stage, stats and power fields from a finished frame loop of `frames`
/// frames. `r.frame_period` must be set and `sys` finalized at `window`.
/// FrameSimulator and workload::run_workload both assemble results here.
void fill_frame_result(FrameSimResult& r, const ShardedRunOutput& out,
                       const multichannel::MemorySystem& sys, int frames,
                       Time window, double margin);

class FrameSimulator {
 public:
  explicit FrameSimulator(FrameSimOptions options = {}) : opt_(options) {}

  [[nodiscard]] FrameSimResult run(const multichannel::SystemConfig& system,
                                   const video::UseCaseParams& usecase) const;

 private:
  FrameSimResult run_impl(const multichannel::SystemConfig& system,
                          const video::UseCaseParams& usecase) const;

  FrameSimOptions opt_;
};

}  // namespace mcm::core
