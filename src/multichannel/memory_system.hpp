// The multi-channel memory subsystem of paper Fig. 2: M parallel channels,
// each a memory controller + DRAM interconnect + bank cluster, fed through
// the Table II address interleaver. This is the library's main entry point
// for memory simulation.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "channel/channel.hpp"
#include "common/units.hpp"
#include "controller/request.hpp"
#include "dram/device_class.hpp"
#include "multichannel/interleaver.hpp"

namespace mcm::obs {
class MetricsRegistry;
class TraceWriter;
}  // namespace mcm::obs

namespace mcm::multichannel {

struct SystemConfig {
  dram::DeviceSpec device = dram::DeviceSpec::next_gen_mobile_ddr();
  Frequency freq{400.0};
  std::uint32_t channels = 4;
  std::uint32_t interleave_bytes = 16;  // Table II minimum practical granularity
  ctrl::AddressMux mux = ctrl::AddressMux::kRBC;
  ctrl::ControllerConfig controller;
  channel::InterconnectSpec interconnect;
  channel::InterfacePowerSpec interface;

  /// Device class per channel (index = channel id). Empty = every channel
  /// binds `device` (the legacy homogeneous system, bit-identical to the
  /// pre-class config). Non-empty must have exactly `channels` entries.
  std::vector<dram::DeviceClass> channel_classes;

  /// Vault-style stacked interface: consecutive groups of `vault_group`
  /// channels share one TSV bundle, modelled as per-channel front-end TDM
  /// (request interval x group size) plus a fixed serialization latency.
  /// 0 or 1 = independent interfaces (no shared-TSV cost).
  std::uint32_t vault_group = 0;

  [[nodiscard]] bool heterogeneous() const { return !channel_classes.empty(); }

  /// The one home of the system's range rules: the first failing field, or
  /// nullopt. Every front end calls it, and so does MemorySystem.
  [[nodiscard]] std::optional<FieldError> validate() const;

  /// Class bound by channel `ch` (kMobileDdr when no classes configured).
  [[nodiscard]] dram::DeviceClass channel_class(std::uint32_t ch) const {
    return ch < channel_classes.size() ? channel_classes[ch]
                                       : dram::DeviceClass::kMobileDdr;
  }

  /// Full device spec for channel `ch` (the resolved class table).
  [[nodiscard]] dram::DeviceSpec channel_device(std::uint32_t ch) const {
    return dram::device_class_spec(channel_class(ch), device);
  }

  /// Interconnect spec for channel `ch` with the shared-TSV serialization
  /// cost applied. This is the single definition of the vault model: the
  /// production system and the golden reference both construct their
  /// channels from it, so the transform can never diverge between them.
  [[nodiscard]] channel::InterconnectSpec channel_interconnect(
      std::uint32_t ch) const;
};

struct SystemPowerReport {
  std::vector<channel::ChannelPowerReport> per_channel;
  dram::EnergyBreakdown dram;  // summed over channels
  double dram_mw = 0;
  double interface_mw = 0;
  double total_mw = 0;
};

struct SystemStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t powerdown_entries = 0;
  std::uint64_t selfrefresh_entries = 0;
  Accumulator latency_ns;  // per-request arrival -> data end, all channels
  Histogram latency_hist_ns{0.0, ctrl::ControllerStats::kLatencyHistMaxNs,
                            ctrl::ControllerStats::kLatencyHistBuckets};

  /// Per-channel controller statistics (index = channel id), so reports can
  /// show which channel saturated or lost row locality.
  std::vector<ctrl::ControllerStats> per_channel;

  [[nodiscard]] std::uint64_t accesses() const { return reads + writes; }
  [[nodiscard]] double row_hit_rate() const {
    const auto n = accesses();
    return n > 0 ? static_cast<double>(row_hits) / static_cast<double>(n) : 0.0;
  }

  /// Fold one channel in as the next per_channel row: the one merge rule
  /// behind MemorySystem::stats() and ChannelClusterSystem::stats().
  void add_channel(const channel::Channel& c);
};

// Driving a MemorySystem. push() and drain() are the one drive API: the
// state-machine frame loop, playback, trace replay, the examples and the
// channel-cluster studies all feed requests through them. For a request r
// routed to channel j:
//   1. j applies the max of the thresholds published since its previous
//      push: it serves requests while (horizon_j, j) <lex that threshold.
//   2. if j's queue is full: publish T = (horizon_j, j) to every other
//      channel (max-merged into their pending threshold), then serve j once.
//   3. enqueue r into j, with r's own arrival.
// drain() is the stage barrier: every channel serves its queue to empty
// (pending thresholds are subsumed by the full drain).
//
// This is exactly what a heap loop (`while (!try_submit(r)) process_next()`)
// does. A full-queue stall there serves the globally min-(horizon, channel)
// channel until j's key is the minimum again: every channel k with
// (h_k, k) < (h_j, j) is served up to that bound, then j once. Between two
// of k's own enqueues only the largest such bound matters, so the bounds can
// be applied lazily at k's next push. Arrivals do not enter the argument:
// both loops admit a request as soon as its channel has room, whatever its
// arrival, and a channel's service depends only on its own queue and state.
// Each channel therefore sees the same sequence of enqueues and services;
// only the cross-channel interleaving differs, and no output depends on it
// (stats, energy and traces are kept per channel, a stage's completion is a
// max). tests/multichannel/drive_equivalence_test.cpp checks it byte for
// byte on random sources with uneven per-request arrivals.
class MemorySystem {
 public:
  explicit MemorySystem(const SystemConfig& cfg);

  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t channel_count() const {
    return static_cast<std::uint32_t>(channels_.size());
  }
  [[nodiscard]] const channel::Channel& channel(std::uint32_t i) const {
    return channels_[i];
  }

  /// Total byte capacity across channels.
  [[nodiscard]] std::uint64_t capacity_bytes() const;

  /// Aggregate peak data bandwidth (bytes/s).
  [[nodiscard]] double peak_bandwidth_bytes_per_s() const;

  /// Route `r` (global address) to its channel and admit it by the
  /// threshold rule above; books the route count. Kept in the header so the
  /// frame loop's per-request step pays no call overhead.
  void push(const ctrl::Request& r) {
    claim(Drive::kFeed);
    const RoutedAddress routed = interleaver_.route(r.addr);
    const std::uint32_t j = routed.channel;
    channel::Channel& ch = channels_[j];
    Threshold& pending = thresholds_[j];
    if (pending.valid) {
      const Threshold t = pending;
      pending.valid = false;
      while (ch.has_pending() && key_less(ch.horizon().ps(), j, t.h_ps, t.channel)) {
        serve(ch);
      }
    }
    if (!ch.can_accept()) {
      // Threshold = pre-serve horizon: the heap loop's stall serves other
      // channels up to (h_j, j) *before* serving j itself. j's own slot is
      // empty here, so it takes the fold too and is cleared after.
      const std::int64_t hj = ch.horizon().ps();
      for (Threshold& other : thresholds_) other.fold(hj, j);
      pending.valid = false;
      serve(ch);
    }
    ctrl::Request local = r;
    local.addr = routed.local;
    ch.enqueue(local);
    ++route_counts_[j];
  }

  /// Stage barrier: serve every queued request. Returns the latest
  /// completion since the previous drain() (zero when nothing completed).
  Time drain();

  void finalize(Time end);

  [[nodiscard]] SystemStats stats() const;
  [[nodiscard]] SystemPowerReport power(Time window) const;

  /// Requests routed to each channel by the interleaver (index = channel).
  [[nodiscard]] const std::vector<std::uint64_t>& route_counts() const {
    return route_counts_;
  }

  /// Attach (or detach with nullptr) a structured trace writer to every
  /// channel's controller; events are tagged with the channel index.
  void attach_trace(obs::TraceWriter* sink);

  /// Attach a trace writer to a single channel (per-channel spools).
  void attach_trace(obs::TraceWriter* sink, std::uint32_t ch) {
    channels_[ch].set_trace_sink(sink, ch);
  }

  /// Publish the full metric catalogue (system aggregates, per-channel
  /// counters and latency/queue histograms, per-bank access counts,
  /// interleaver routing, power-state residency) into `reg` under `prefix`.
  void collect_metrics(obs::MetricsRegistry& reg,
                       const std::string& prefix = "") const;

  // ---- The kConcurrent loop's path, and nothing else's ----------------------
  // FrameSimulator's kConcurrent loop decides when to feed its paced display
  // and audio requests from max_horizon() after every single service, so it
  // needs the eager (horizon, channel) heap below; the lazy threshold rule
  // would change its results. ROADMAP item 9 decides that loop's future.
  // One system is driven either by push()/drain() or by these members,
  // never both (asserted in debug builds).

  /// Route once and enqueue if the target channel has room.
  bool try_submit(const ctrl::Request& r);

  /// Serve one request on the most-behind pending channel (smallest
  /// (horizon, channel) key). Returns nullopt when nothing is pending.
  std::optional<ctrl::Completion> process_next();

  /// Latest horizon across channels served through process_next (and
  /// finalize). Horizons only advance, so this is tracked incrementally.
  [[nodiscard]] Time max_horizon() const { return max_horizon_; }

 private:
  /// A pending threshold (h, channel): the channel it is addressed to serves
  /// while its own (horizon, channel) key is below it.
  struct Threshold {
    std::int64_t h_ps = 0;
    std::uint32_t channel = 0;
    bool valid = false;

    /// Max-merge another threshold into this one.
    void fold(std::int64_t h, std::uint32_t c) {
      if (!valid || key_less(h_ps, channel, h, c)) {
        h_ps = h;
        channel = c;
        valid = true;
      }
    }
  };

  /// Strict (horizon, channel) order: smaller horizon first, ties to the
  /// lowest channel index.
  static bool key_less(std::int64_t ha, std::uint32_t ia, std::int64_t hb,
                       std::uint32_t ib) {
    return ha < hb || (ha == hb && ia < ib);
  }

  void serve(channel::Channel& ch) { done_ = max(done_, ch.process_one().done); }

  enum class Drive : std::uint8_t { kNone, kFeed, kHeap };

  /// Debug builds check that one system is never driven both ways.
  void claim([[maybe_unused]] Drive d) {
#ifndef NDEBUG
    assert(drive_ == Drive::kNone || drive_ == d);
    drive_ = d;
#endif
  }

  /// Min-heap of pending channels keyed by (horizon, channel index) so
  /// process_next is O(log M) instead of a linear scan over every channel.
  /// Each pending channel appears exactly once; a channel's key only moves
  /// while it is at the top (process_one), so an in-place re-key of the
  /// root plus one sift-down keeps the heap valid (update-on-pop).
  struct ReadySlot {
    Time horizon;
    std::uint32_t channel;
  };

  static bool ready_before(const ReadySlot& a, const ReadySlot& b) {
    return key_less(a.horizon.ps(), a.channel, b.horizon.ps(), b.channel);
  }

  /// Add newly-pending channel `ch` to the ready heap (sift-up).
  void heap_push(std::uint32_t ch);

  /// Restore the heap property downward from slot `i` after a re-key.
  void heap_sift_down(std::size_t i);

  SystemConfig cfg_;
  Interleaver interleaver_;
  std::vector<channel::Channel> channels_;
  std::vector<std::uint64_t> route_counts_;
  std::vector<Threshold> thresholds_;  // push(): per channel
  Time done_ = Time::zero();           // push()/drain(): latest completion
  std::vector<ReadySlot> ready_heap_;  // try_submit()/process_next()
  Time max_horizon_ = Time::zero();
  Drive drive_ = Drive::kNone;
};

}  // namespace mcm::multichannel
