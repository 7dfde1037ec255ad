// Channel model: memory controller + DRAM interconnect + bank cluster
// (paper Fig. 2). The interconnect adds a fixed pipeline latency in each
// direction (3-D die stack vias are short); it shifts completion times but
// does not limit throughput. Power is reported as the DRAM energy tally plus
// the Eq. (1) interface power.
#pragma once

#include <cstdint>

#include "channel/interface_power.hpp"
#include "common/units.hpp"
#include "controller/memory_controller.hpp"
#include "dram/energy.hpp"

namespace mcm::channel {

struct InterconnectSpec {
  Time latency = Time::from_ns(1.0);  // one-way MC <-> bank cluster

  /// Minimum clock cycles between request handoffs into one channel's
  /// controller, modelling the on-chip interconnect's per-transaction
  /// overhead (Fig. 2's "On-chip interconnect"). 0 = no front-end limit.
  int request_interval_cycles = 0;
};

struct ChannelPowerReport {
  dram::EnergyBreakdown dram;   // pJ over the window
  double dram_avg_mw = 0;
  double interface_mw = 0;
  double total_mw = 0;
};

class Channel {
 public:
  Channel(const dram::DeviceSpec& spec, Frequency freq, ctrl::AddressMux mux,
          const ctrl::ControllerConfig& cfg, InterconnectSpec interconnect = {},
          InterfacePowerSpec interface = {})
      : controller_(spec, freq, mux, cfg),
        energy_model_(spec.power, controller_.timing()),
        interconnect_(interconnect),
        interface_(interface),
        freq_(freq) {}

  [[nodiscard]] bool can_accept() const { return controller_.can_accept(); }
  [[nodiscard]] bool has_pending() const { return controller_.has_pending(); }
  [[nodiscard]] Time horizon() const { return controller_.horizon(); }

  void enqueue(ctrl::Request r) {
    if (interconnect_.request_interval_cycles > 0) {
      // Front-end serialization: the interconnect hands over at most one
      // request per interval; later arrivals push the acceptance point.
      r.arrival = max(r.arrival, next_accept_);
      next_accept_ =
          r.arrival + freq_.period() * interconnect_.request_interval_cycles;
    }
    controller_.enqueue(r);
  }

  ctrl::Completion process_one() {
    ctrl::Completion c = controller_.process_one();
    c.done += interconnect_.latency * 2;  // request out + data back
    return c;
  }

  void finalize(Time end) { controller_.finalize(end); }

  /// Forward observability tracing into the controller (nullptr detaches).
  void set_trace_sink(obs::TraceWriter* sink, std::uint32_t channel_id) {
    controller_.set_trace_sink(sink, channel_id);
  }

  /// Average power over [0, window].
  [[nodiscard]] ChannelPowerReport power(Time window) const {
    ChannelPowerReport r;
    r.dram = energy_model_.tally(controller_.ledger());
    const double window_ns = window.ns();
    r.dram_avg_mw = window_ns > 0 ? r.dram.total_pj() / window_ns : 0.0;
    r.interface_mw = interface_.power_mw(freq_);
    r.total_mw = r.dram_avg_mw + r.interface_mw;
    return r;
  }

  [[nodiscard]] const ctrl::MemoryController& controller() const { return controller_; }
  [[nodiscard]] const ctrl::ControllerStats& stats() const { return controller_.stats(); }
  [[nodiscard]] const dram::EnergyModel& energy_model() const { return energy_model_; }
  [[nodiscard]] Frequency freq() const { return freq_; }

 private:
  ctrl::MemoryController controller_;
  dram::EnergyModel energy_model_;
  InterconnectSpec interconnect_;
  InterfacePowerSpec interface_;
  Frequency freq_;
  Time next_accept_ = Time::zero();  // front-end handoff cursor
};

}  // namespace mcm::channel
