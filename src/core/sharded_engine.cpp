#include "core/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "exec/thread_pool.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace mcm::core {
namespace {

// Positions per speculative chunk when the caller does not choose: big
// enough that the 2-3 chunk barriers amortize to noise against ~4096
// requests of service work, small enough that a rollback replays a bounded
// slice.
constexpr unsigned kDefaultSimChunk = 4096;

// Speculative chunks between epoch snapshots. Snapshots copy whole channels
// (dominated by the ~32 KB latency histogram each), so they are amortized
// over several chunks; a rollback replays at most this many chunks.
constexpr unsigned kEpochChunks = 8;

// Genuine rollbacks tolerated per segment before the rest of the segment is
// finished serially (adaptive kill switch; a pure function of deterministic
// state, so it cannot break determinism).
constexpr unsigned kMaxRollbacksPerSegment = 8;

// Requests the sequential feed decodes from a stage's runs at a time: the
// feed loop then reads a plain array, and the block stays in L1.
constexpr std::size_t kFeedBlock = 1024;

constexpr std::uint64_t kNoDivergence =
    std::numeric_limits<std::uint64_t>::max();

/// MCM_SIM_SPEC=rollback forces a rollback at every speculative chunk (test
/// knob: results must stay byte-identical).
bool force_rollback_from_env() {
  const char* env = std::getenv("MCM_SIM_SPEC");
  return env != nullptr && std::strcmp(env, "rollback") == 0;
}

/// Strict (horizon, channel) order — the sequential engine's channel-select
/// key. `a` pops while its key is lexicographically below the threshold.
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

struct alignas(64) ChanState {
  // Max of the thresholds published since this channel's previous position.
  Threshold tmax;
  std::uint64_t routed = 0;

  // Epoch protocol only (owner-local, barrier-synchronized): next
  // unconsumed index into ChunkMeta::pos_of for this channel, and the exit
  // threshold the validation walk computed for the current chunk (promoted
  // to tmax on commit, discarded on rollback).
  std::uint32_t meta_idx = 0;
  Threshold exit;
};

// Per-worker self-profiling handles (obs/prof). Everything here observes
// host-side wall clock only and never feeds back into engine decisions, so
// simulated results are identical with profiling on or off. Interning the
// per-worker phase names costs a handful of map lookups per run, paid only
// when profiling is enabled.
struct WorkerProf {
  bool on = false;
  obs::prof::PhaseId feed{};        // main-loop wall per segment (incl. waits)
  obs::prof::PhaseId drain{};       // stage-barrier drain wall per segment
  obs::prof::PhaseId barrier{};     // segment/chunk barrier wait
  obs::prof::PhaseId retired{};     // completions popped by this worker
  obs::prof::PhaseId speculate{};   // speculative execution wall
  obs::prof::PhaseId validate{};    // validation walk wall
  obs::prof::PhaseId snapshot{};    // epoch snapshot wall
  obs::prof::PhaseId publishes{};   // full-queue publish records
  obs::prof::PhaseId spec_depth{};  // own positions per speculative chunk
};

WorkerProf make_worker_prof(unsigned w) {
  WorkerProf p;
  p.on = obs::prof::enabled();
  if (!p.on) return p;
  char buf[48];
  const auto id = [&](const char* suffix) {
    std::snprintf(buf, sizeof buf, "engine/w%u/%s", w, suffix);
    return obs::prof::phase_id(buf);
  };
  p.feed = id("feed");
  p.drain = id("drain");
  p.barrier = id("barrier_wait");
  p.retired = id("retired");
  p.speculate = id("speculate");
  p.validate = id("validate");
  p.snapshot = id("snapshot");
  p.publishes = id("publishes");
  p.spec_depth = id("spec_depth");
  std::snprintf(buf, sizeof buf, "engine/w%u", w);
  obs::prof::set_thread_label(buf);
  return p;
}

struct Segment {
  const load::CachedStage* stage = nullptr;
  std::uint32_t burst = 0;
  int frame = 0;
  bool first_of_frame = false;
  bool last_of_frame = false;
};

/// Every stage of every frame, in feed order.
std::vector<Segment> make_segments(
    const std::vector<const load::CachedWorkload*>& frame_workloads) {
  std::vector<Segment> segments;
  for (std::size_t f = 0; f < frame_workloads.size(); ++f) {
    const load::CachedWorkload* wl = frame_workloads[f];
    assert(!wl->stages.empty());
    for (std::size_t si = 0; si < wl->stages.size(); ++si) {
      Segment s;
      s.stage = &wl->stages[si];
      s.burst = wl->burst_bytes;
      s.frame = static_cast<int>(f);
      s.first_of_frame = si == 0;
      s.last_of_frame = si + 1 == wl->stages.size();
      segments.push_back(s);
    }
  }
  return segments;
}

/// The state machine's clock (paper Section III): a stage's requests all
/// arrive when the previous stage has fully completed; a frame starts at the
/// later of its sensor slot and the previous frame's end. Both feeds advance
/// it through the same two calls.
struct FrameClock {
  Time period = Time::zero();
  Time t = Time::zero();            // start of the next frame
  Time frame_start = Time::zero();
  Time stage_start = Time::zero();  // arrival time of the current stage
  ShardedRunOutput out;

  void begin_frame() {
    frame_start = t;
    stage_start = t;
  }

  /// Close segment `s`, whose last completion was `last_done`.
  void end_stage(const Segment& s, Time last_done) {
    stage_start = max(stage_start, last_done);
    if (s.frame == 0) {
      const std::uint64_t bytes = s.stage->reqs.size() * s.burst;
      out.first_frame_stages.emplace_back(s.stage->name, bytes);
      out.first_frame_completed.push_back(stage_start);
      out.bytes_first_frame += bytes;
    }
    if (s.last_of_frame) {
      const Time busy = stage_start - frame_start;
      out.access_accum += busy;
      out.per_frame_access.push_back(busy);
      t = max(frame_start + period, stage_start);
    }
  }
};

ctrl::Request stage_request(std::uint64_t packed, std::uint64_t local,
                            Time arrival, std::uint16_t source) {
  ctrl::Request r;
  r.addr = local;
  r.is_write = load::CachedStage::is_write_of(packed);
  r.arrival = arrival;
  r.source = source;
  return r;
}

/// The exact protocol over `words`, consecutive packed requests of one
/// stage in stream order, single-threaded: a block decoded from the stage's
/// runs (the sequential feed) or a slice of the epoch protocol's flat view
/// of the stage (its serial replay). For a request routed to channel c:
/// serve c's pending threshold; if c's queue is full, publish (h_c, c) to
/// every other channel and pop c once; enqueue. Returns the max of `done`
/// and every completion popped.
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
      // Threshold = pre-pop horizon: the sequential stall serves other
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

/// Stage barrier for one channel: drain it to empty (pending thresholds are
/// subsumed by the full drain).
void drain_channel(channel::Channel& ch, ChanState& st, Time& done,
                   std::uint64_t& retired) {
  st.tmax.valid = false;
  while (ch.has_pending()) {
    done = max(done, ch.process_one().done);
    ++retired;
  }
}

// ---------------------------------------------------------------------------
// Epoch protocol (more than one worker).
// ---------------------------------------------------------------------------

struct Shared {
  multichannel::MemorySystem& sys;
  const multichannel::Interleaver& il;
  std::vector<Segment> segments;
  FrameClock clock;
  unsigned workers = 1;

  std::atomic<unsigned> arrived{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> failed{false};
  bool oversubscribed = false;

  // Written by the serial barrier step, read by workers after the next
  // generation acquire.
  Time arrival = Time::zero();

  std::vector<ChanState> chans;
  std::vector<Time> slot_last_done;  // per worker

  unsigned chunk = 0;  // max positions per speculative chunk
  bool force_rollback = false;
  std::vector<std::shared_ptr<const load::ChunkMeta>> metas;  // per segment
  std::size_t seg_index = 0;  // segment the chunk serial steps operate on
  // The current segment's requests decoded from their runs once, so the
  // protocol can address them by position.
  std::vector<std::uint64_t> flat;

  // Chunk window: written by serial steps, read by workers after the next
  // generation acquire.
  std::uint64_t chunk_begin = 0;
  std::uint64_t chunk_end = 0;
  bool chunk_proven = false;
  bool take_snapshot = false;
  bool rolled_back = false;
  bool spec_killed = false;

  // Speculation record for the current chunk, indexed p - chunk_begin.
  // Each position is written by exactly one worker (the channel owner)
  // during SPEC and read only after the chunk barrier.
  std::vector<std::int64_t> h_pre;  // horizon before the full-queue pop
  std::vector<std::uint8_t> flags;  // bit0 was_full, bit1 had_pending

  // Per-worker first divergence (kNoDivergence = clean), min-reduced at
  // the commit barrier.
  std::vector<std::uint64_t> div_min;

  // Epoch snapshot: whole-channel copies + trace rewind marks + engine
  // state, restored on rollback. Snapshots of a worker's own channels are
  // taken in parallel at the chunk start; the post-replay re-snapshot is
  // serial.
  std::uint64_t epoch_begin = 0;
  bool has_snapshot = false;
  unsigned spec_chunks_since_snapshot = 0;
  unsigned segment_rollbacks = 0;
  std::vector<std::optional<channel::Channel>> chan_snaps;
  std::vector<std::uint64_t> spool_marks;
  std::vector<ChanState> chan_saves;
  std::vector<Time> done_snap;  // per worker

  explicit Shared(multichannel::MemorySystem& s)
      : sys(s), il(s.interleaver()) {}
};

/// Wait briefly for another worker. With more workers than hardware
/// threads, the awaited worker cannot be running — hand the core over
/// immediately instead of burning a scheduling quantum.
void spin_pause(unsigned& spins, bool oversubscribed) {
  if (oversubscribed) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
  if ((++spins & 63u) == 0) std::this_thread::yield();
}

void stage_next_chunk(Shared& sh, std::uint64_t begin, std::uint64_t n);

/// Make segment `i` current: decode its flat view and stage its first chunk.
void begin_segment(Shared& sh, std::size_t i) {
  const load::PackedRuns& reqs = sh.segments[i].stage->reqs;
  sh.seg_index = i;
  sh.flat.resize(reqs.size());
  auto from = reqs.begin();
  reqs.decode(from, sh.flat);
  stage_next_chunk(sh, 0, sh.flat.size());
}

/// The serial step the last barrier arriver runs after the current segment:
/// merge per-worker completion maxima, advance the frame clock, and stage
/// the next segment.
void serial_step(Shared& sh) {
  const std::size_t i = sh.seg_index;
  Time last = sh.arrival;
  for (unsigned w = 0; w < sh.workers; ++w) {
    last = max(last, sh.slot_last_done[w]);
  }
  sh.clock.end_stage(sh.segments[i], last);
  if (i + 1 < sh.segments.size()) {
    if (sh.segments[i + 1].first_of_frame) sh.clock.begin_frame();
    sh.arrival = sh.clock.stage_start;
    for (ChanState& st : sh.chans) {
      st.tmax.valid = false;
      st.meta_idx = 0;
    }
    // Fresh chunk state for the next segment: the stage drain left every
    // queue empty, so the occupancy-based window proof starts clean.
    // Snapshots never outlive a segment (arrival changes).
    sh.has_snapshot = false;
    sh.spec_chunks_since_snapshot = 0;
    sh.segment_rollbacks = 0;
    sh.spec_killed = false;
    begin_segment(sh, i + 1);
  } else {
    sh.clock.out.end_time = sh.clock.t;
  }
}

/// Sense-reversing barrier; the last arriver runs `step` (if non-null),
/// timed under `step_phase`. Returns false when the run was aborted by a
/// failure.
bool barrier(Shared& sh, const WorkerProf& wp, void (*step)(Shared&),
             obs::prof::PhaseId step_phase = {}) {
  const std::uint64_t gen = sh.generation.load(std::memory_order_acquire);
  if (sh.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == sh.workers) {
    if (step != nullptr) {
      const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
      step(sh);
      if (wp.on) obs::prof::tally(step_phase, obs::prof::now_ns() - t0);
    }
    sh.arrived.store(0, std::memory_order_relaxed);
    sh.generation.store(gen + 1, std::memory_order_release);
    return !sh.failed.load(std::memory_order_relaxed);
  }
  const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
  unsigned spins = 0;
  while (sh.generation.load(std::memory_order_acquire) == gen) {
    if (sh.failed.load(std::memory_order_relaxed)) break;
    spin_pause(spins, sh.oversubscribed);
  }
  if (wp.on) obs::prof::tally(wp.barrier, obs::prof::now_ns() - t0);
  return !sh.failed.load(std::memory_order_relaxed);
}

/// Stage the next chunk window starting at `begin` (serial context only:
/// all channels quiescent). Tier-1 proven-run extension first: while every
/// channel's occupancy plus incoming positions fits its queue, no queue can
/// fill, so no thresholds can publish — entry-threshold pops only shrink
/// occupancy, keeping the bound valid. Otherwise a speculative window of at
/// most `chunk` positions, scheduling an epoch snapshot when due.
void stage_next_chunk(Shared& sh, std::uint64_t begin, std::uint64_t n) {
  sh.chunk_begin = begin;
  sh.take_snapshot = false;
  if (begin >= n) {
    sh.chunk_end = begin;
    sh.chunk_proven = false;
    return;
  }
  const load::ChunkMeta& meta = *sh.metas[sh.seg_index];
  const std::uint32_t channels = sh.sys.channel_count();
  const std::uint64_t step = sh.chunk;
  std::uint64_t b = begin;
  for (;;) {
    const std::uint64_t trial = std::min(b + step, n);
    if (trial == b) break;
    bool ok = true;
    for (std::uint32_t c = 0; c < channels && ok; ++c) {
      const ctrl::MemoryController& mc = sh.sys.channel(c).controller();
      ok = mc.pending() + meta.count_in(c, begin, trial) <= mc.queue_capacity();
    }
    if (!ok) break;
    b = trial;
  }
  if (b > begin) {
    static const obs::prof::PhaseId kProven =
        obs::prof::phase_id("engine/proven_positions");
    obs::prof::count(kProven, b - begin);
    sh.chunk_end = b;
    sh.chunk_proven = true;
    return;
  }
  sh.chunk_end = std::min(begin + step, n);
  sh.chunk_proven = false;
  if (!sh.has_snapshot || sh.spec_chunks_since_snapshot >= kEpochChunks) {
    sh.take_snapshot = true;
    sh.epoch_begin = begin;
    sh.spec_chunks_since_snapshot = 0;
    sh.has_snapshot = true;
  }
  ++sh.spec_chunks_since_snapshot;
}

/// Epoch snapshot of this worker's own channels (parallel; the serial
/// rollback reads it through the barrier). slot_last_done[w] must be
/// flushed before the call.
void snapshot_own(Shared& sh, unsigned w, const WorkerProf& wp) {
  const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
  const std::uint32_t channels = sh.sys.channel_count();
  for (std::uint32_t c = w; c < channels; c += sh.workers) {
    channel::Channel& ch = sh.sys.channel(c);
    if (sh.chan_snaps[c].has_value()) {
      *sh.chan_snaps[c] = ch;
    } else {
      sh.chan_snaps[c].emplace(ch);
    }
    obs::TraceWriter* tw = ch.trace_writer();
    sh.spool_marks[c] = tw != nullptr ? tw->mark() : 0;
    sh.chan_saves[c] = sh.chans[c];
  }
  sh.done_snap[w] = sh.slot_last_done[w];
  if (wp.on) obs::prof::tally(wp.snapshot, obs::prof::now_ns() - t0);
}

/// Speculative execution of channel `c`'s positions in [a, b). Entry
/// thresholds (published by earlier chunks) apply at the first own
/// position, exactly as the sequential feed would; thresholds published
/// *inside* the chunk are assumed not to bind — the validation walk checks
/// that assumption. In a proven window no queue can fill, so the records
/// are skipped and tmax commits immediately.
void spec_channel(Shared& sh, const Segment& s, const load::ChunkMeta& meta,
                  std::uint32_t c, std::uint64_t a, std::uint64_t b,
                  bool proven, Time& local_done, std::uint64_t& retired,
                  std::uint64_t& publishes, std::uint64_t& processed) {
  channel::Channel& ch = sh.sys.channel(c);
  ChanState& st = sh.chans[c];
  const std::vector<std::uint32_t>& pos = meta.pos_of[c];
  const std::uint64_t* reqs = sh.flat.data();
  const std::uint16_t sid = s.stage->source_id;
  const Time arr = sh.arrival;
  std::uint32_t i = st.meta_idx;
  bool entry_pending = st.tmax.valid;
  while (i < pos.size() && pos[i] < b) {
    const std::uint64_t p = pos[i];
    if (entry_pending) {
      while (ch.has_pending() &&
             key_less(ch.horizon().ps(), c, st.tmax.h_ps, st.tmax.idx)) {
        local_done = max(local_done, ch.process_one().done);
        ++retired;
      }
      entry_pending = false;
      // Keep tmax for the validation walk's entry state; a proven window
      // has no validation, so the application commits right here.
      if (proven) st.tmax.valid = false;
    }
    const bool was_full = !ch.can_accept();
    if (!proven) {
      const std::uint64_t rel = p - a;
      sh.h_pre[rel] = ch.horizon().ps();
      sh.flags[rel] = static_cast<std::uint8_t>((was_full ? 1u : 0u) |
                                                (ch.has_pending() ? 2u : 0u));
    }
    if (was_full) {
      assert(!proven);  // the occupancy bound proved no fill was possible
      local_done = max(local_done, ch.process_one().done);
      ++retired;
      ++publishes;
    }
    const std::uint64_t packed = reqs[p];
    const std::uint64_t local =
        sh.il.route(load::CachedStage::addr_of(packed)).local;
    ch.enqueue(stage_request(packed, local, arr, sid));
    ++st.routed;
    ++i;
    ++processed;
  }
  st.meta_idx = i;
}

/// Validation walk for channel `c` over [a, b): replay the chunk's publish
/// sequence from the speculation records and flag the first own position
/// where a threshold would have popped but speculation did not. Publishes
/// recorded before the *global* first divergence are protocol-exact, so the
/// min over channels of the flagged positions is the exact first
/// divergence. On a clean walk the leftover threshold becomes the exit
/// state (promoted to tmax on commit).
void validate_channel(Shared& sh, const load::ChunkMeta& meta, std::uint32_t c,
                      std::uint64_t a, std::uint64_t b,
                      std::uint64_t& div_min) {
  ChanState& st = sh.chans[c];
  Threshold t = st.tmax;
  const std::uint8_t* chan = meta.chan.data();
  for (std::uint64_t p = a; p < b; ++p) {
    const std::uint64_t rel = p - a;
    const std::uint8_t fl = sh.flags[rel];
    if (chan[p] == c) {
      if (t.valid && (fl & 2u) != 0 &&
          key_less(sh.h_pre[rel], c, t.h_ps, t.idx)) {
        div_min = std::min(div_min, p);
        return;  // records beyond the first divergence can be garbage
      }
      t.valid = false;
    } else if ((fl & 1u) != 0) {
      t.fold(sh.h_pre[rel], chan[p]);
    }
  }
  st.exit = t;
}

/// Replay stream range [a, b) of the current segment single-threaded with
/// the exact protocol, folding completion times into worker slot 0.
/// Requires channel state that is protocol-exact at position a.
void replay_serial_range(Shared& sh, std::uint64_t a, std::uint64_t b) {
  std::uint64_t retired = 0;
  sh.slot_last_done[0] = feed_range(
      sh.sys, sh.chans, std::span(sh.flat).subspan(a, b - a),
      sh.segments[sh.seg_index].stage->source_id, sh.arrival,
      sh.slot_last_done[0], retired);
}

/// Serial rollback: restore the epoch snapshot, replay [epoch_begin, b)
/// with the exact protocol single-threaded, then re-snapshot at b so
/// replayed (protocol-exact) state is never rolled back again.
void rollback_and_replay(Shared& sh, std::uint64_t b) {
  const load::ChunkMeta& meta = *sh.metas[sh.seg_index];
  const std::uint32_t channels = sh.sys.channel_count();
  for (std::uint32_t c = 0; c < channels; ++c) {
    channel::Channel& ch = sh.sys.channel(c);
    ch = *sh.chan_snaps[c];
    obs::TraceWriter* tw = ch.trace_writer();
    if (tw != nullptr) tw->rewind(sh.spool_marks[c]);
    sh.chans[c] = sh.chan_saves[c];
  }
  for (unsigned x = 0; x < sh.workers; ++x) {
    sh.slot_last_done[x] = sh.done_snap[x];
  }

  replay_serial_range(sh, sh.epoch_begin, b);

  for (std::uint32_t c = 0; c < channels; ++c) {
    channel::Channel& ch = sh.sys.channel(c);
    *sh.chan_snaps[c] = ch;
    obs::TraceWriter* tw = ch.trace_writer();
    sh.spool_marks[c] = tw != nullptr ? tw->mark() : 0;
    ChanState& st = sh.chans[c];
    st.meta_idx = static_cast<std::uint32_t>(
        std::lower_bound(meta.pos_of[c].begin(), meta.pos_of[c].end(),
                         static_cast<std::uint32_t>(b)) -
        meta.pos_of[c].begin());
    sh.chan_saves[c] = st;
  }
  for (unsigned x = 0; x < sh.workers; ++x) {
    sh.done_snap[x] = sh.slot_last_done[x];
  }
  sh.epoch_begin = b;
  sh.spec_chunks_since_snapshot = 0;
  sh.has_snapshot = true;
}

/// The serial step at a chunk's commit barrier: reduce divergences, roll
/// back if needed, trip the kill switch, stage the next window.
void serial_chunk_step(Shared& sh) {
  const Segment& s = sh.segments[sh.seg_index];
  const std::uint64_t n = s.stage->reqs.size();
  const std::uint64_t b = sh.chunk_end;
  sh.rolled_back = false;
  if (!sh.chunk_proven) {
    std::uint64_t div = kNoDivergence;
    for (unsigned w = 0; w < sh.workers; ++w) {
      div = std::min(div, sh.div_min[w]);
      sh.div_min[w] = kNoDivergence;
    }
    const bool genuine = div != kNoDivergence;
    if (genuine || sh.force_rollback) {
      static const obs::prof::PhaseId kRollback =
          obs::prof::phase_id("engine/rollback");
      const bool pon = obs::prof::enabled();
      const std::int64_t t0 = pon ? obs::prof::now_ns() : 0;
      rollback_and_replay(sh, b);
      if (pon) obs::prof::tally(kRollback, obs::prof::now_ns() - t0);
      sh.rolled_back = true;
      if (genuine && ++sh.segment_rollbacks >= kMaxRollbacksPerSegment) {
        // Speculation keeps diverging on this segment: finish it serially
        // right here with the exact protocol and let the workers drop to
        // the drain.
        sh.spec_killed = true;
        replay_serial_range(sh, b, n);
        sh.chunk_begin = n;
        sh.chunk_end = n;
        return;
      }
    }
  }
  stage_next_chunk(sh, b, n);
}

void run_chunked_segment(Shared& sh, const Segment& s, unsigned w,
                         const WorkerProf& wp) {
  static const obs::prof::PhaseId kEpochPublish =
      obs::prof::phase_id("engine/epoch_publish");
  const std::uint64_t n = s.stage->reqs.size();
  const load::ChunkMeta& meta = *sh.metas[sh.seg_index];
  const std::uint32_t channels = sh.sys.channel_count();
  const unsigned T = sh.workers;
  Time local_done = max(sh.arrival, sh.slot_last_done[w]);

  const bool pon = wp.on;
  const std::int64_t t_feed0 = pon ? obs::prof::now_ns() : 0;
  std::uint64_t retired = 0;
  std::uint64_t publishes = 0;

  while (!sh.failed.load(std::memory_order_relaxed)) {
    const std::uint64_t a = sh.chunk_begin;
    const std::uint64_t b = sh.chunk_end;
    if (a >= n || sh.spec_killed) break;
    const bool proven = sh.chunk_proven;
    if (sh.take_snapshot) {
      sh.slot_last_done[w] = local_done;
      snapshot_own(sh, w, wp);
    }

    const std::int64_t t_spec0 = pon ? obs::prof::now_ns() : 0;
    std::uint64_t processed = 0;
    for (std::uint32_t c = w; c < channels; c += T) {
      spec_channel(sh, s, meta, c, a, b, proven, local_done, retired,
                   publishes, processed);
    }
    if (pon) {
      obs::prof::tally(wp.speculate, obs::prof::now_ns() - t_spec0);
      if (!proven) obs::prof::value(wp.spec_depth, static_cast<std::int64_t>(processed));
    }
    sh.slot_last_done[w] = local_done;

    if (proven) {
      if (!barrier(sh, wp, serial_chunk_step, kEpochPublish)) return;
    } else {
      if (!barrier(sh, wp, nullptr)) return;
      const std::int64_t t_val0 = pon ? obs::prof::now_ns() : 0;
      std::uint64_t dmin = kNoDivergence;
      for (std::uint32_t c = w; c < channels; c += T) {
        validate_channel(sh, meta, c, a, b, dmin);
      }
      sh.div_min[w] = dmin;
      if (pon) obs::prof::tally(wp.validate, obs::prof::now_ns() - t_val0);
      if (!barrier(sh, wp, serial_chunk_step, kEpochPublish)) return;
      if (sh.rolled_back) {
        local_done = sh.slot_last_done[w];
      } else {
        for (std::uint32_t c = w; c < channels; c += T) {
          sh.chans[c].tmax = sh.chans[c].exit;
        }
      }
    }
  }

  if (pon) {
    obs::prof::tally(wp.feed, obs::prof::now_ns() - t_feed0);
    if (retired > 0) obs::prof::count(wp.retired, retired);
    if (publishes > 0) obs::prof::count(wp.publishes, publishes);
  }
  const std::int64_t t_drain0 = pon ? obs::prof::now_ns() : 0;
  std::uint64_t drain_retired = 0;
  for (std::uint32_t c = w; c < channels; c += T) {
    drain_channel(sh.sys.channel(c), sh.chans[c], local_done, drain_retired);
  }
  sh.slot_last_done[w] = local_done;
  if (pon) {
    obs::prof::tally(wp.drain, obs::prof::now_ns() - t_drain0);
    if (drain_retired > 0) obs::prof::count(wp.retired, drain_retired);
  }
}

void run_worker(Shared& sh, unsigned w) {
  static const obs::prof::PhaseId kSerialStep =
      obs::prof::phase_id("engine/serial_step");
  const WorkerProf wp = make_worker_prof(w);
  try {
    for (const Segment& s : sh.segments) {
      run_chunked_segment(sh, s, w, wp);
      if (!barrier(sh, wp, serial_step, kSerialStep)) return;
    }
  } catch (...) {
    sh.failed.store(true, std::memory_order_relaxed);
    throw;
  }
}

/// Why a run with more than one resolved worker cannot use the epoch
/// protocol, or nullptr when it can.
const char* sequential_fallback_reason(const multichannel::MemorySystem& sys,
                                       unsigned chunk) {
  if (chunk <= 1) return "chunk size 1 disables speculation";
  // ChunkMeta's routing table is byte-wide.
  if (sys.channel_count() > 255) return "more than 255 channels";
  // Rollback truncates trace spools back to the epoch snapshot.
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    const obs::TraceWriter* tw = sys.channel(c).trace_writer();
    if (tw != nullptr && !tw->supports_rewind()) {
      return "a channel's trace writer cannot rewind";
    }
  }
  return nullptr;
}

}  // namespace

unsigned sim_threads_from_env() {
  const char* env = std::getenv("MCM_SIM_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return 1;
  return static_cast<unsigned>(v);
}

unsigned resolve_sim_threads(unsigned requested, std::uint32_t channels) {
  const unsigned want = requested > 0 ? requested : sim_threads_from_env();
  return std::max(1u, std::min(want, channels));
}

unsigned resolve_sim_chunk(unsigned requested) {
  return requested > 0 ? requested : kDefaultSimChunk;
}

ShardedRunOutput run_sharded_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period, unsigned sim_threads, unsigned sim_chunk) {
  const std::uint32_t channels = sys.channel_count();
  const unsigned workers = resolve_sim_threads(sim_threads, channels);
  if (workers == 1) return run_sequential_frames(sys, frame_workloads, period);
  const unsigned chunk = resolve_sim_chunk(sim_chunk);
  if (const char* reason = sequential_fallback_reason(sys, chunk)) {
    static const obs::prof::PhaseId kFallback =
        obs::prof::phase_id("engine/sequential_fallback");
    obs::prof::count(kFallback, 1);
    static std::atomic<bool> logged{false};
    if (!logged.exchange(true, std::memory_order_relaxed)) {
      MCM_LOG_WARN("%u sim workers requested, running the sequential feed: %s",
                   workers, reason);
    }
    return run_sequential_frames(sys, frame_workloads, period);
  }

  Shared sh(sys);
  sh.clock.period = period;
  sh.workers = workers;
  const unsigned hw = std::thread::hardware_concurrency();
  sh.oversubscribed = hw > 0 && sh.workers > hw;
  sh.force_rollback = force_rollback_from_env();
  sh.segments = make_segments(frame_workloads);

  std::unordered_map<const load::CachedStage*,
                     std::shared_ptr<const load::ChunkMeta>>
      meta_by_stage;
  std::uint64_t max_n = 0;
  for (std::size_t f = 0, seg = 0; f < frame_workloads.size(); ++f) {
    const load::CachedWorkload* wl = frame_workloads[f];
    for (std::size_t si = 0; si < wl->stages.size(); ++si, ++seg) {
      const load::CachedStage* stage = sh.segments[seg].stage;
      auto& meta = meta_by_stage[stage];
      if (meta == nullptr) {
        meta = load::StreamCache::instance().chunk_meta(*wl, si, channels,
                                                        sh.il.granularity());
      }
      sh.metas.push_back(meta);
      max_n = std::max<std::uint64_t>(max_n, stage->reqs.size());
    }
  }
  sh.chans = std::vector<ChanState>(channels);
  sh.slot_last_done.assign(sh.workers, Time::zero());

  // Bound the per-chunk record arrays by the largest segment.
  sh.chunk = static_cast<unsigned>(
      std::min<std::uint64_t>(chunk, std::max<std::uint64_t>(max_n, 2)));
  sh.h_pre.assign(sh.chunk, 0);
  sh.flags.assign(sh.chunk, 0);
  sh.div_min.assign(sh.workers, kNoDivergence);
  sh.chan_snaps.resize(channels);
  sh.spool_marks.assign(channels, 0);
  sh.chan_saves.assign(channels, ChanState{});
  sh.done_snap.assign(sh.workers, Time::zero());
  begin_segment(sh, 0);

  {
    exec::ThreadPool pool(sh.workers - 1);
    for (unsigned w = 1; w < sh.workers; ++w) {
      pool.submit([&sh, w] { run_worker(sh, w); });
    }
    try {
      run_worker(sh, 0);
    } catch (...) {
      // Workers observe `failed` and unwind; surface the first error.
      try {
        pool.wait_idle();
      } catch (...) {
      }
      throw;
    }
    pool.wait_idle();
  }

  for (std::uint32_t c = 0; c < channels; ++c) {
    sys.add_route_count(c, sh.chans[c].routed);
  }
  return sh.clock.out;
}

ShardedRunOutput run_sequential_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period) {
  const WorkerProf wp = make_worker_prof(0);
  const std::uint32_t channels = sys.channel_count();
  std::vector<ChanState> chans(channels);
  std::array<std::uint64_t, kFeedBlock> block;  // decode() fills it
  FrameClock clock;
  clock.period = period;
  for (const Segment& s : make_segments(frame_workloads)) {
    if (s.first_of_frame) clock.begin_frame();
    const Time arrival = clock.stage_start;
    const std::int64_t t_feed0 = wp.on ? obs::prof::now_ns() : 0;
    std::uint64_t retired = 0;
    Time done = arrival;
    const load::PackedRuns& reqs = s.stage->reqs;
    auto from = reqs.begin();
    while (const std::size_t n = reqs.decode(from, block)) {
      done = feed_range(sys, chans, std::span(block.data(), n),
                        s.stage->source_id, arrival, done, retired);
    }
    const std::int64_t t_drain0 = wp.on ? obs::prof::now_ns() : 0;
    for (std::uint32_t c = 0; c < channels; ++c) {
      drain_channel(sys.channel(c), chans[c], done, retired);
    }
    if (wp.on) {
      const std::int64_t t_end = obs::prof::now_ns();
      obs::prof::tally(wp.feed, t_drain0 - t_feed0);
      obs::prof::tally(wp.drain, t_end - t_drain0);
      if (retired > 0) obs::prof::count(wp.retired, retired);
    }
    clock.end_stage(s, done);
  }
  for (std::uint32_t c = 0; c < channels; ++c) {
    sys.add_route_count(c, chans[c].routed);
  }
  clock.out.end_time = clock.t;
  return clock.out;
}

}  // namespace mcm::core
