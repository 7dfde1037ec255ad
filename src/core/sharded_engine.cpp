#include "core/sharded_engine.hpp"

#include <array>
#include <span>

#include "obs/prof.hpp"

namespace mcm::core {
namespace {

// Requests the feed decodes from a stage's runs at a time: the feed loop
// then reads a plain array, and the block stays in L1.
constexpr std::size_t kFeedBlock = 1024;

// Self-profiling handles (obs/prof). They observe host-side wall clock only
// and never feed back into engine decisions, so simulated results are
// identical with profiling on or off.
struct FeedProf {
  bool on = false;
  obs::prof::PhaseId feed{};     // feed-loop wall per stage
  obs::prof::PhaseId drain{};    // stage-barrier drain wall per stage
  obs::prof::PhaseId retired{};  // requests served
};

FeedProf make_feed_prof() {
  FeedProf p;
  p.on = obs::prof::enabled();
  if (!p.on) return p;
  p.feed = obs::prof::phase_id("engine/feed");
  p.drain = obs::prof::phase_id("engine/drain");
  p.retired = obs::prof::phase_id("engine/retired");
  return p;
}

}  // namespace

ShardedRunOutput run_sequential_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period) {
  const FeedProf prof = make_feed_prof();
  std::array<std::uint64_t, kFeedBlock> block;  // decode() fills it
  ShardedRunOutput out;
  // The state machine's clock (paper Section III): a stage's requests all
  // arrive when the previous stage has fully completed; a frame starts at
  // the later of its sensor slot and the previous frame's end.
  Time t = Time::zero();
  for (std::size_t f = 0; f < frame_workloads.size(); ++f) {
    const load::CachedWorkload& wl = *frame_workloads[f];
    const Time frame_start = t;
    Time stage_start = t;
    for (const load::CachedStage& stage : wl.stages) {
      const std::int64_t t_feed0 = prof.on ? obs::prof::now_ns() : 0;
      auto from = stage.reqs.begin();
      while (const std::size_t n = stage.reqs.decode(from, block)) {
        for (const std::uint64_t packed : std::span(block.data(), n)) {
          sys.push(ctrl::Request{load::CachedStage::addr_of(packed),
                                 load::CachedStage::is_write_of(packed),
                                 stage_start, stage.source_id});
        }
      }
      const std::int64_t t_drain0 = prof.on ? obs::prof::now_ns() : 0;
      stage_start = max(stage_start, sys.drain());
      if (prof.on) {
        const std::int64_t t_end = obs::prof::now_ns();
        obs::prof::tally(prof.feed, t_drain0 - t_feed0);
        obs::prof::tally(prof.drain, t_end - t_drain0);
        // Every request admitted is served before the barrier returns.
        if (stage.reqs.size() > 0) obs::prof::count(prof.retired, stage.reqs.size());
      }
      if (f == 0) {
        const std::uint64_t bytes = stage.reqs.size() * wl.burst_bytes;
        out.first_frame_stages.emplace_back(stage.name, bytes);
        out.first_frame_completed.push_back(stage_start);
        out.bytes_first_frame += bytes;
      }
    }
    const Time busy = stage_start - frame_start;
    out.access_accum += busy;
    out.per_frame_access.push_back(busy);
    t = max(frame_start + period, stage_start);
  }
  out.end_time = t;
  return out;
}

ShardedRunOutput run_sharded_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period, unsigned /*sim_threads*/, unsigned /*sim_chunk*/) {
  return run_sequential_frames(sys, frame_workloads, period);
}

unsigned resolve_sim_threads(unsigned /*requested*/,
                             std::uint32_t /*channels*/) {
  return 1;
}

unsigned resolve_sim_chunk(unsigned /*requested*/) { return 1; }

}  // namespace mcm::core
