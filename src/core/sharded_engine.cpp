#include "core/sharded_engine.hpp"

#include <array>
#include <span>

#include "obs/prof.hpp"

namespace mcm::core {
namespace {

// Requests the feed decodes from a stage's runs at a time: the feed loop
// then reads a plain array, and the block stays in L1.
constexpr std::size_t kFeedBlock = 1024;

/// Strict (horizon, channel) order — the heap loop's channel-select key.
/// `a` pops while its key is lexicographically below the threshold.
bool key_less(std::int64_t ha, std::uint32_t ia, std::int64_t hb,
              std::uint32_t ib) {
  return ha < hb || (ha == hb && ia < ib);
}

/// A pending threshold (h, idx): the channel it is addressed to pops while
/// its own (horizon, channel) key is below it.
struct Threshold {
  std::int64_t h_ps = 0;
  std::uint32_t idx = 0;
  bool valid = false;

  /// Max-merge another threshold into this one.
  void fold(std::int64_t h, std::uint32_t i) {
    if (!valid || key_less(h_ps, idx, h, i)) {
      h_ps = h;
      idx = i;
      valid = true;
    }
  }
};

struct ChanState {
  // Max of the thresholds published since this channel's previous position.
  Threshold tmax;
  std::uint64_t routed = 0;
};

// Self-profiling handles (obs/prof). They observe host-side wall clock only
// and never feed back into engine decisions, so simulated results are
// identical with profiling on or off.
struct FeedProf {
  bool on = false;
  obs::prof::PhaseId feed{};     // feed-loop wall per stage
  obs::prof::PhaseId drain{};    // stage-barrier drain wall per stage
  obs::prof::PhaseId retired{};  // completions popped
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

ctrl::Request stage_request(std::uint64_t packed, std::uint64_t local,
                            Time arrival, std::uint16_t source) {
  ctrl::Request r;
  r.addr = local;
  r.is_write = load::CachedStage::is_write_of(packed);
  r.arrival = arrival;
  r.source = source;
  return r;
}

/// The threshold protocol over `words`, consecutive packed requests of one
/// stage in stream order. For a request routed to channel c: serve c's
/// pending threshold; if c's queue is full, publish (h_c, c) to every other
/// channel and pop c once; enqueue. Returns the max of `done` and every
/// completion popped.
Time feed_range(multichannel::MemorySystem& sys, std::vector<ChanState>& chans,
                std::span<const std::uint64_t> words, std::uint16_t source,
                Time arrival, Time done, std::uint64_t& retired) {
  const multichannel::Interleaver& il = sys.interleaver();
  const std::uint32_t channels = sys.channel_count();
  const auto pop = [&](channel::Channel& ch) {
    done = max(done, ch.process_one().done);
    ++retired;
  };
  for (const std::uint64_t packed : words) {
    const auto routed = il.route(load::CachedStage::addr_of(packed));
    const std::uint32_t c = routed.channel;
    channel::Channel& ch = sys.channel(c);
    ChanState& st = chans[c];
    if (st.tmax.valid) {
      while (ch.has_pending() &&
             key_less(ch.horizon().ps(), c, st.tmax.h_ps, st.tmax.idx)) {
        pop(ch);
      }
      st.tmax.valid = false;
    }
    if (!ch.can_accept()) {
      // Threshold = pre-pop horizon: the heap loop's stall serves other
      // channels up to (h_j, j) *before* serving j itself.
      const std::int64_t hj = ch.horizon().ps();
      for (std::uint32_t k = 0; k < channels; ++k) {
        if (k != c) chans[k].tmax.fold(hj, c);
      }
      pop(ch);
    }
    ch.enqueue(stage_request(packed, routed.local, arrival, source));
    ++st.routed;
  }
  return done;
}

}  // namespace

ShardedRunOutput run_sequential_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period) {
  const FeedProf prof = make_feed_prof();
  const std::uint32_t channels = sys.channel_count();
  std::vector<ChanState> chans(channels);
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
      std::uint64_t retired = 0;
      Time done = stage_start;
      auto from = stage.reqs.begin();
      while (const std::size_t n = stage.reqs.decode(from, block)) {
        done = feed_range(sys, chans, std::span(block.data(), n),
                          stage.source_id, stage_start, done, retired);
      }
      const std::int64_t t_drain0 = prof.on ? obs::prof::now_ns() : 0;
      // Stage barrier: every channel drains to empty (pending thresholds
      // are subsumed by the full drain).
      for (std::uint32_t c = 0; c < channels; ++c) {
        channel::Channel& ch = sys.channel(c);
        chans[c].tmax.valid = false;
        while (ch.has_pending()) {
          done = max(done, ch.process_one().done);
          ++retired;
        }
      }
      if (prof.on) {
        const std::int64_t t_end = obs::prof::now_ns();
        obs::prof::tally(prof.feed, t_drain0 - t_feed0);
        obs::prof::tally(prof.drain, t_end - t_drain0);
        if (retired > 0) obs::prof::count(prof.retired, retired);
      }
      stage_start = max(stage_start, done);
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
  for (std::uint32_t c = 0; c < channels; ++c) {
    sys.add_route_count(c, chans[c].routed);
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
