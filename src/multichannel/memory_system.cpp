#include "multichannel/memory_system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcm::multichannel {

channel::InterconnectSpec SystemConfig::channel_interconnect(
    std::uint32_t /*ch*/) const {
  channel::InterconnectSpec ic = interconnect;
  if (vault_group >= 2) {
    // Shared TSV bundle: each member channel gets a 1/G TDM share of the
    // handoff interval, plus the bundle's fixed serialization latency. The
    // transform is per-channel state only, so channel copies/snapshots and
    // sharded determinism are untouched.
    ic.request_interval_cycles =
        std::max(ic.request_interval_cycles, 1) *
        static_cast<int>(vault_group);
    ic.latency = ic.latency + Time::from_ns(2.0);
  }
  return ic;
}

MemorySystem::MemorySystem(const SystemConfig& cfg)
    : cfg_(cfg),
      interleaver_(cfg.channels, cfg.interleave_bytes),
      route_counts_(cfg.channels, 0) {
  if (cfg.channels == 0) throw std::invalid_argument("channels must be > 0");
  if (cfg.controller.queue_depth == 0) {
    throw std::invalid_argument("controller queue_depth must be > 0");
  }
  if (cfg.interleave_bytes < cfg.device.org.bytes_per_burst()) {
    throw std::invalid_argument(
        "interleave granularity below the minimum DRAM burst size");
  }
  if (!cfg.channel_classes.empty() &&
      cfg.channel_classes.size() != cfg.channels) {
    throw std::invalid_argument(
        "channel_classes must be empty or have one entry per channel");
  }
  channels_.reserve(cfg.channels);
  for (std::uint32_t i = 0; i < cfg.channels; ++i) {
    channels_.emplace_back(cfg.channel_device(i), cfg.freq, cfg.mux,
                           cfg.controller, cfg.channel_interconnect(i),
                           cfg.interface);
  }
  ready_heap_.reserve(cfg.channels);
}

void MemorySystem::heap_push(std::uint32_t ch) {
  ready_heap_.push_back(ReadySlot{channels_[ch].horizon(), ch});
  std::size_t i = ready_heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!ready_before(ready_heap_[i], ready_heap_[parent])) break;
    std::swap(ready_heap_[i], ready_heap_[parent]);
    i = parent;
  }
}

void MemorySystem::heap_sift_down(std::size_t i) {
  const std::size_t n = ready_heap_.size();
  const ReadySlot moving = ready_heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        ready_before(ready_heap_[child + 1], ready_heap_[child])) {
      ++child;
    }
    if (!ready_before(ready_heap_[child], moving)) break;
    ready_heap_[i] = ready_heap_[child];
    i = child;
  }
  ready_heap_[i] = moving;
}

std::uint64_t MemorySystem::capacity_bytes() const {
  // Per-channel sum: heterogeneous classes bind different die sizes.
  std::uint64_t total = 0;
  for (const auto& c : channels_) {
    total += c.controller().device().org.capacity_bytes();
  }
  return total;
}

double MemorySystem::peak_bandwidth_bytes_per_s() const {
  double total = 0.0;
  for (const auto& c : channels_) {
    const auto& ctl = c.controller();
    total += ctl.timing().peak_bandwidth_bytes_per_s(ctl.device().org);
  }
  return total;
}

void MemorySystem::submit(const ctrl::Request& r) {
  const RoutedAddress routed = interleaver_.route(r.addr);
  ctrl::Request local = r;
  local.addr = routed.local;
  ++route_counts_[routed.channel];
  const bool was_pending = channels_[routed.channel].has_pending();
  channels_[routed.channel].enqueue(local);
  if (!was_pending) heap_push(routed.channel);
}

bool MemorySystem::try_submit(const ctrl::Request& r) {
  const RoutedAddress routed = interleaver_.route(r.addr);
  channel::Channel& c = channels_[routed.channel];
  if (!c.can_accept()) return false;
  ctrl::Request local = r;
  local.addr = routed.local;
  ++route_counts_[routed.channel];
  const bool was_pending = c.has_pending();
  c.enqueue(local);
  if (!was_pending) heap_push(routed.channel);
  return true;
}

bool MemorySystem::any_pending() const {
  for (const auto& c : channels_) {
    if (c.has_pending()) return true;
  }
  return false;
}

std::optional<ctrl::Completion> MemorySystem::process_next() {
  if (ready_heap_.empty()) return std::nullopt;
  channel::Channel& c = channels_[ready_heap_.front().channel];
  assert(c.has_pending());
  const ctrl::Completion done = c.process_one();
  const Time h = c.horizon();
  if (h > max_horizon_) max_horizon_ = h;
  if (c.has_pending()) {
    ready_heap_.front().horizon = h;  // re-key in place
  } else {
    ready_heap_.front() = ready_heap_.back();  // drained: swap-remove
    ready_heap_.pop_back();
  }
  if (!ready_heap_.empty()) heap_sift_down(0);
  return done;
}

Time MemorySystem::drain() {
  Time last = Time::zero();
  while (auto c = process_next()) last = max(last, c->done);
  return last;
}

void MemorySystem::finalize(Time end) {
  assert(!any_pending());
  for (auto& c : channels_) {
    c.finalize(end);
    if (c.horizon() > max_horizon_) max_horizon_ = c.horizon();
  }
}

SystemStats MemorySystem::stats() const {
  SystemStats s;
  s.per_channel.reserve(channels_.size());
  for (const auto& c : channels_) {
    const auto& st = c.stats();
    s.reads += st.reads;
    s.writes += st.writes;
    s.bytes += st.bytes;
    s.row_hits += st.row_hits;
    s.row_misses += st.row_misses;
    s.row_conflicts += st.row_conflicts;
    s.activates += st.activates;
    s.precharges += st.precharges;
    s.refreshes += st.refreshes;
    s.powerdown_entries += c.controller().ledger().n_powerdown_entries;
    s.selfrefresh_entries += c.controller().ledger().n_selfrefresh_entries;
    s.latency_ns += st.latency_ns();
    s.latency_hist_ns += st.latency_hist_ns;
    s.per_channel.push_back(st);
  }
  return s;
}

void MemorySystem::attach_trace(obs::TraceWriter* sink) {
  for (std::uint32_t i = 0; i < channels_.size(); ++i) {
    channels_[i].set_trace_sink(sink, i);
  }
}

void MemorySystem::collect_metrics(obs::MetricsRegistry& reg,
                                   const std::string& prefix) const {
  const SystemStats s = stats();
  reg.counter(prefix + "system/reads").set(s.reads);
  reg.counter(prefix + "system/writes").set(s.writes);
  reg.counter(prefix + "system/bytes").set(s.bytes);
  reg.counter(prefix + "system/row_hits").set(s.row_hits);
  reg.counter(prefix + "system/row_misses").set(s.row_misses);
  reg.counter(prefix + "system/row_conflicts").set(s.row_conflicts);
  reg.counter(prefix + "system/activates").set(s.activates);
  reg.counter(prefix + "system/precharges").set(s.precharges);
  reg.counter(prefix + "system/refreshes").set(s.refreshes);
  reg.counter(prefix + "system/powerdown_entries").set(s.powerdown_entries);
  reg.counter(prefix + "system/selfrefresh_entries").set(s.selfrefresh_entries);
  reg.gauge(prefix + "system/row_hit_rate").set(s.row_hit_rate());
  reg.gauge(prefix + "system/channels").set(static_cast<double>(channels_.size()));
  reg.histogram(prefix + "system/latency_ns", s.latency_hist_ns);

  for (std::uint32_t i = 0; i < channels_.size(); ++i) {
    const std::string ch = prefix + "ch" + std::to_string(i) + "/";
    const auto& ctl = channels_[i].controller();
    const auto& st = ctl.stats();
    reg.counter(ch + "reads").set(st.reads);
    reg.counter(ch + "writes").set(st.writes);
    reg.counter(ch + "bytes").set(st.bytes);
    reg.counter(ch + "row_hits").set(st.row_hits);
    reg.counter(ch + "row_misses").set(st.row_misses);
    reg.counter(ch + "row_conflicts").set(st.row_conflicts);
    reg.counter(ch + "activates").set(st.activates);
    reg.counter(ch + "precharges").set(st.precharges);
    reg.counter(ch + "refreshes").set(st.refreshes);
    reg.gauge(ch + "row_hit_rate").set(st.row_hit_rate());
    reg.histogram(ch + "latency_ns", st.latency_hist_ns);
    reg.histogram(ch + "queue_depth", st.queue_depth);
    reg.counter(prefix + "interleaver/routed/ch" + std::to_string(i))
        .set(route_counts_[i]);

    const auto& banks = ctl.bank_accesses();
    for (std::size_t b = 0; b < banks.size(); ++b) {
      reg.counter(ch + "bank" + std::to_string(b) + "/accesses").set(banks[b]);
    }

    // Power-state residency (ns over the run) — where power-down thrashing
    // or missing idle tails show up.
    const auto& ledger = ctl.ledger();
    reg.gauge(ch + "residency/active_standby_ns").set(ledger.t_active_standby.ns());
    reg.gauge(ch + "residency/precharge_standby_ns")
        .set(ledger.t_precharge_standby.ns());
    reg.gauge(ch + "residency/active_powerdown_ns")
        .set(ledger.t_active_powerdown.ns());
    reg.gauge(ch + "residency/powerdown_ns").set(ledger.t_powerdown.ns());
    reg.gauge(ch + "residency/selfrefresh_ns").set(ledger.t_selfrefresh.ns());
    reg.counter(ch + "powerdown_entries").set(ledger.n_powerdown_entries);
    reg.counter(ch + "selfrefresh_entries").set(ledger.n_selfrefresh_entries);
  }
}

SystemPowerReport MemorySystem::power(Time window) const {
  SystemPowerReport r;
  r.per_channel.reserve(channels_.size());
  for (const auto& c : channels_) {
    auto p = c.power(window);
    r.dram += p.dram;
    r.dram_mw += p.dram_avg_mw;
    r.interface_mw += p.interface_mw;
    r.total_mw += p.total_mw;
    r.per_channel.push_back(std::move(p));
  }
  return r;
}


}  // namespace mcm::multichannel
