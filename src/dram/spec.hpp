// DRAM device specification for the paper's "theoretical next generation
// mobile DDR SDRAM": organization, ns-domain timing parameters, and IDD-based
// power parameters.
//
// Extrapolation rule (paper, Section III): parameters with a clear connection
// to clock frequency are extrapolated; the rest are used exactly as denoted in
// the 200 MHz Mobile DDR datasheet. We implement that by keeping analog
// timings in nanoseconds and re-deriving cycle counts at each simulated
// frequency (200-533 MHz per the DDR2 range), while the data rate scales with
// the clock (DDR: both edges).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/units.hpp"

namespace mcm::dram {

/// Physical organization of one bank cluster (one channel's DRAM die).
struct OrgSpec {
  std::uint32_t banks = 4;
  std::uint64_t capacity_bits = 512ull * 1024 * 1024;  // 512 Mb per cluster
  std::uint32_t word_bits = 32;                        // x32 interface
  std::uint32_t burst_length = 4;                      // words per burst (min)
  std::uint32_t row_bytes = 2048;                      // page size

  [[nodiscard]] std::uint64_t capacity_bytes() const { return capacity_bits / 8; }
  [[nodiscard]] std::uint32_t bytes_per_burst() const {
    return word_bits / 8 * burst_length;  // 16 B with x32 BL4
  }
  [[nodiscard]] std::uint32_t bursts_per_row() const {
    return row_bytes / bytes_per_burst();
  }
  [[nodiscard]] std::uint64_t rows_per_bank() const {
    return capacity_bytes() / (static_cast<std::uint64_t>(banks) * row_bytes);
  }
};

/// Analog (ns-domain) timing parameters at the datasheet reference point.
struct TimingSpec {
  double tCAS_ns = 15.0;   // read latency (CL = 3 cycles @ 200 MHz)
  double tCWL_ck = 1.0;    // write latency, cycles (LPDDR fixed at 1 clock)
  double tRCD_ns = 15.0;   // activate -> column command
  double tRP_ns = 15.0;    // precharge -> activate
  double tRAS_ns = 40.0;   // activate -> precharge (min)
  double tRC_ns = 55.0;    // activate -> activate, same bank
  double tRRD_ns = 10.0;   // activate -> activate, different bank
  double tWR_ns = 15.0;    // write recovery before precharge
  double tWTR_ns = 5.0;    // write data end -> read command
  double tRTP_ns = 7.5;    // read -> precharge
  double tRFC_ns = 72.0;   // auto-refresh cycle time
  double tREFI_ns = 7812.5;  // average refresh interval (64 ms / 8192 rows);
                             // 0 = refresh-free device (non-volatile cells)
  double tXP_ns = 7.5;     // power-down exit -> first command
  double tCKE_ck = 2.0;    // minimum CKE low time, cycles
  double tXSR_ns = 112.5;  // self-refresh exit -> first command
  double tFAW_ns = 0.0;    // four-activate window; 0 disables (LPDDR1 has none)

  /// Data-bus cycles one burst occupies: burst_length / transfers-per-clock
  /// (2 for the paper's DDR BL4 device; 4 for an SDR interface like Wide
  /// I/O-style stacked DRAM).
  int burst_cycles = 2;

  double freq_min_mhz = 200.0;  // DDR2 clock range the paper sweeps
  double freq_max_mhz = 533.0;
};

/// IDD-style current parameters (mA) plus operating voltage.
///
/// The paper projects a 1.35 V core (ITRS) and extrapolates contemporary
/// Mobile DDR datasheets; the absolute IDD values below are calibrated so the
/// bottom-up energy model reproduces the paper's reported operating points
/// (150 mW 720p/1ch, 345 mW 1080p30/4ch, ~1.28 W 2160p/8ch at 400 MHz).
/// See EXPERIMENTS.md for the calibration record.
struct PowerSpec {
  double vdd = 1.35;           // core voltage (projected, paper Section III)
  double freq_ref_mhz = 200;   // frequency the IDD values are specified at

  double idd0_ma = 45.0;    // one ACT-PRE pair per tRC
  double idd2n_ma = 16.0;   // precharge standby
  double idd2p_ma = 0.45;   // precharge power-down
  double idd3n_ma = 26.0;   // active standby
  double idd3p_ma = 1.4;    // active power-down
  double idd4r_ma = 88.0;   // continuous read burst (at freq_ref)
  double idd4w_ma = 84.0;   // continuous write burst (at freq_ref)
  double idd5_ma = 120.0;   // auto-refresh (averaged over tRFC)
  double idd6_ma = 0.25;    // self refresh (cells kept alive internally)

  /// Burst currents are per-transition and scale with clock frequency;
  /// fixed-duration events (ACT/PRE pair over tRC, refresh over tRFC) and
  /// standby currents do not.
  [[nodiscard]] double idd4r_at(double freq_mhz) const {
    return idd4r_ma * freq_mhz / freq_ref_mhz;
  }
  [[nodiscard]] double idd4w_at(double freq_mhz) const {
    return idd4w_ma * freq_mhz / freq_ref_mhz;
  }
};

/// Full device spec: organization + timing + power.
struct DeviceSpec {
  OrgSpec org;
  TimingSpec timing;
  PowerSpec power;

  /// The paper's estimated next-generation mobile DDR SDRAM device:
  /// 512 Mb x32 four-bank cluster, 1.35 V, 200-533 MHz DDR.
  [[nodiscard]] static DeviceSpec next_gen_mobile_ddr() { return DeviceSpec{}; }

  /// A contemporary (2008) Mobile DDR SDRAM: same organization, 1.8 V core,
  /// clock capped at 200 MHz, higher datasheet currents. The "what you could
  /// buy when the paper was written" comparison point.
  [[nodiscard]] static DeviceSpec mobile_ddr_2008();

  /// A hypothetical eight-bank, tFAW-constrained follow-on generation
  /// (DDR3-style core) for the future-work ablation: more banks to hide
  /// row cycles, but a four-activate window limit.
  [[nodiscard]] static DeviceSpec eight_bank_future();

  /// A Wide I/O-style stacked DRAM channel: 128-bit SDR interface at modest
  /// clocks over TSVs - the other way die stacking can buy bandwidth
  /// (width instead of the paper's channel count x clock).
  [[nodiscard]] static DeviceSpec wide_io_like();
};

/// The named DeviceSpec factories: the `device` vocabulary of the JSON specs.
enum class DevicePreset : std::uint8_t {
  kNextGenMobileDdr, kMobileDdr2008, kEightBankFuture, kWideIoLike
};

inline constexpr std::array kAllDevicePresets = {
    DevicePreset::kNextGenMobileDdr, DevicePreset::kMobileDdr2008,
    DevicePreset::kEightBankFuture, DevicePreset::kWideIoLike};

[[nodiscard]] std::string_view to_string(DevicePreset preset);
[[nodiscard]] std::optional<DevicePreset> parse_device_preset(std::string_view name);
[[nodiscard]] DeviceSpec device_spec(DevicePreset preset);

/// Cycle-domain timing at a concrete clock frequency. Every parameter is a
/// whole number of clock cycles (ceil of the ns value), commands issue on
/// clock edges, and data moves on both edges (DDR).
struct DerivedTiming {
  Frequency freq;
  Time clk;        // clock period
  int cl = 0;      // read latency, cycles
  int cwl = 0;     // write latency, cycles
  int burst_ck = 0;  // data bus occupancy per burst: BL/2 (DDR)
  int trcd = 0;
  int trp = 0;
  int tras = 0;
  int trc = 0;
  int trrd = 0;
  int twr = 0;
  int twtr = 0;
  int trtp = 0;
  int trfc = 0;
  std::int64_t trefi = 0;
  int txp = 0;
  int tcke = 0;
  int txsr = 0;
  int tfaw = 0;  // 0 = no four-activate window

  [[nodiscard]] Time cycles(std::int64_t n) const { return Time{clk.ps() * n}; }

  /// False for refresh-free devices (tREFI_ns = 0, e.g. the PCM-like class):
  /// the periodic-refresh and self-refresh machinery is disabled entirely.
  [[nodiscard]] bool has_refresh() const { return trefi > 0; }

  /// Peak data bandwidth of one channel in bytes/second: one burst of
  /// bytes_per_burst every burst_ck clocks.
  [[nodiscard]] double peak_bandwidth_bytes_per_s(const OrgSpec& org) const {
    return freq.hz() * org.bytes_per_burst() / burst_ck;
  }

  [[nodiscard]] static DerivedTiming derive(const TimingSpec& t, Frequency f);
};

}  // namespace mcm::dram
