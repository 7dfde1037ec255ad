#include "dram/spec.hpp"

#include <cmath>
#include <stdexcept>

#include "common/config.hpp"

namespace mcm::dram {
namespace {

int ns_to_cycles(double ns, Time clk) {
  const auto ps = static_cast<std::int64_t>(std::llround(ns * 1e3));
  return static_cast<int>((ps + clk.ps() - 1) / clk.ps());
}

struct PresetEntry {
  std::string_view name;
  DeviceSpec (*make)();
};
// Indexed by DevicePreset.
constexpr PresetEntry kPresets[] = {
    {"next_gen_mobile_ddr", &DeviceSpec::next_gen_mobile_ddr},
    {"mobile_ddr_2008", &DeviceSpec::mobile_ddr_2008},
    {"eight_bank_future", &DeviceSpec::eight_bank_future},
    {"wide_io_like", &DeviceSpec::wide_io_like},
};

}  // namespace

DerivedTiming DerivedTiming::derive(const TimingSpec& t, Frequency f) {
  if (f.mhz() < t.freq_min_mhz - 1e-9 || f.mhz() > t.freq_max_mhz + 1e-9) {
    throw std::invalid_argument("clock frequency outside the device's DDR2 range");
  }
  DerivedTiming d;
  d.freq = f;
  d.clk = f.period();
  d.cl = ns_to_cycles(t.tCAS_ns, d.clk);
  d.cwl = static_cast<int>(t.tCWL_ck);
  d.burst_ck = t.burst_cycles;
  d.trcd = ns_to_cycles(t.tRCD_ns, d.clk);
  d.trp = ns_to_cycles(t.tRP_ns, d.clk);
  d.tras = ns_to_cycles(t.tRAS_ns, d.clk);
  d.trc = ns_to_cycles(t.tRC_ns, d.clk);
  d.trrd = ns_to_cycles(t.tRRD_ns, d.clk);
  d.twr = ns_to_cycles(t.tWR_ns, d.clk);
  d.twtr = ns_to_cycles(t.tWTR_ns, d.clk);
  d.trtp = ns_to_cycles(t.tRTP_ns, d.clk);
  d.trfc = t.tRFC_ns > 0.0 ? ns_to_cycles(t.tRFC_ns, d.clk) : 0;
  d.trefi = t.tREFI_ns > 0.0 ? ns_to_cycles(t.tREFI_ns, d.clk) : 0;
  d.txp = ns_to_cycles(t.tXP_ns, d.clk);
  d.tcke = static_cast<int>(t.tCKE_ck);
  d.txsr = ns_to_cycles(t.tXSR_ns, d.clk);
  d.tfaw = t.tFAW_ns > 0.0 ? ns_to_cycles(t.tFAW_ns, d.clk) : 0;
  return d;
}

std::string_view to_string(DevicePreset p) { return kPresets[static_cast<int>(p)].name; }

std::optional<DevicePreset> parse_device_preset(std::string_view name) {
  return enum_by_name(name, kAllDevicePresets);
}

DeviceSpec device_spec(DevicePreset p) { return kPresets[static_cast<int>(p)].make(); }

DeviceSpec DeviceSpec::mobile_ddr_2008() {
  DeviceSpec spec;
  spec.timing.freq_min_mhz = 100.0;
  spec.timing.freq_max_mhz = 200.0;
  // Micron 512 Mb Mobile DDR (-5 grade) class numbers at 1.8 V.
  spec.power.vdd = 1.8;
  spec.power.idd0_ma = 65.0;
  spec.power.idd2n_ma = 22.0;
  spec.power.idd2p_ma = 0.6;
  spec.power.idd3n_ma = 35.0;
  spec.power.idd3p_ma = 2.0;
  spec.power.idd4r_ma = 125.0;
  spec.power.idd4w_ma = 120.0;
  spec.power.idd5_ma = 140.0;
  spec.power.idd6_ma = 0.35;
  return spec;
}

DeviceSpec DeviceSpec::eight_bank_future() {
  DeviceSpec spec;
  spec.org.banks = 8;
  spec.org.capacity_bits = 1024ull * 1024 * 1024;  // 1 Gb cluster
  spec.timing.tFAW_ns = 50.0;                      // DDR3-style window
  spec.timing.tRRD_ns = 10.0;
  return spec;
}

DeviceSpec DeviceSpec::wide_io_like() {
  DeviceSpec spec;
  spec.org.word_bits = 128;  // TSV-wide interface: 64 B per BL4 burst
  spec.timing.burst_cycles = 4;  // single data rate
  spec.timing.freq_min_mhz = 100.0;
  spec.timing.freq_max_mhz = 266.0;
  // Core currents rise with the 4x wider fetch, far less than 4x (shared
  // row buffer); TSV I/O is cheap, which the interface spec captures.
  spec.power.idd4r_ma = 150.0;
  spec.power.idd4w_ma = 144.0;
  spec.power.idd0_ma = 55.0;
  return spec;
}

}  // namespace mcm::dram
