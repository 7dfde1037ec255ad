// The multi-channel memory subsystem of paper Fig. 2: M parallel channels,
// each a memory controller + DRAM interconnect + bank cluster, fed through
// the Table II address interleaver. This is the library's main entry point
// for memory simulation.
#pragma once

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
};

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
  /// Mutable channel access for the state-machine feed, which drives each
  /// channel directly instead of going through try_submit/process_next.
  [[nodiscard]] channel::Channel& channel(std::uint32_t i) {
    return channels_[i];
  }
  [[nodiscard]] const Interleaver& interleaver() const { return interleaver_; }

  /// Total byte capacity across channels.
  [[nodiscard]] std::uint64_t capacity_bytes() const;

  /// Aggregate peak data bandwidth (bytes/s).
  [[nodiscard]] double peak_bandwidth_bytes_per_s() const;

  /// Which channel a global byte address routes to.
  [[nodiscard]] std::uint32_t channel_of(std::uint64_t global_addr) const {
    return interleaver_.route(global_addr).channel;
  }

  /// True when the target channel queue has room for this request.
  [[nodiscard]] bool can_accept(std::uint64_t global_addr) const {
    return channels_[channel_of(global_addr)].can_accept();
  }

  /// Route and enqueue. Precondition: can_accept(r.addr).
  void submit(const ctrl::Request& r);

  /// Route once and enqueue if the target channel has room. Equivalent to
  /// `can_accept(r.addr) && (submit(r), true)` with a single address route.
  bool try_submit(const ctrl::Request& r);

  [[nodiscard]] bool any_pending() const;

  /// Serve one request on the most-behind pending channel (keeps the
  /// channels' time horizons advancing together). Returns nullopt when
  /// nothing is pending.
  std::optional<ctrl::Completion> process_next();

  /// Drain every queued request; returns the last completion time.
  Time drain();

  void finalize(Time end);

  [[nodiscard]] SystemStats stats() const;
  [[nodiscard]] SystemPowerReport power(Time window) const;

  /// Latest horizon across channels (time committed so far). Horizons only
  /// advance, so this is tracked incrementally instead of scanned.
  [[nodiscard]] Time max_horizon() const { return max_horizon_; }

  /// Requests routed to each channel by the interleaver (index = channel).
  [[nodiscard]] const std::vector<std::uint64_t>& route_counts() const {
    return route_counts_;
  }

  /// Attach (or detach with nullptr) a structured trace writer to every
  /// channel's controller; events are tagged with the channel index.
  void attach_trace(obs::TraceWriter* sink);

  /// Attach a trace writer to a single channel (the state-machine feed
  /// gives each channel its own spool).
  void attach_trace(obs::TraceWriter* sink, std::uint32_t ch) {
    channels_[ch].set_trace_sink(sink, ch);
  }

  /// Bulk-account `n` requests routed to channel `ch` (the state-machine
  /// feed routes outside the MemorySystem but keeps the routing counters
  /// alive).
  void add_route_count(std::uint32_t ch, std::uint64_t n) {
    route_counts_[ch] += n;
  }

  /// Publish the full metric catalogue (system aggregates, per-channel
  /// counters and latency/queue histograms, per-bank access counts,
  /// interleaver routing, power-state residency) into `reg` under `prefix`.
  void collect_metrics(obs::MetricsRegistry& reg,
                       const std::string& prefix = "") const;

 private:
  /// Min-heap of pending channels keyed by (horizon, channel index) so
  /// process_next is O(log M) instead of a linear scan over every channel.
  /// Each pending channel appears exactly once; a channel's key only moves
  /// while it is at the top (process_one), so an in-place re-key of the
  /// root plus one sift-down keeps the heap valid (update-on-pop).
  struct ReadySlot {
    Time horizon;
    std::uint32_t channel;
  };

  /// Strict order: smaller horizon first, ties to the lowest channel index -
  /// the same channel a linear scan would pick, so the multi-channel
  /// interleaving is unchanged.
  static bool ready_before(const ReadySlot& a, const ReadySlot& b) {
    if (a.horizon != b.horizon) return a.horizon < b.horizon;
    return a.channel < b.channel;
  }

  /// Add newly-pending channel `ch` to the ready heap (sift-up).
  void heap_push(std::uint32_t ch);

  /// Restore the heap property downward from slot `i` after a re-key.
  void heap_sift_down(std::size_t i);

  SystemConfig cfg_;
  Interleaver interleaver_;
  std::vector<channel::Channel> channels_;
  std::vector<std::uint64_t> route_counts_;
  std::vector<ReadySlot> ready_heap_;
  Time max_horizon_ = Time::zero();
};

}  // namespace mcm::multichannel
