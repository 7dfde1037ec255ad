#include "dram/device_class.hpp"

#include "common/config.hpp"

namespace mcm::dram {

std::string_view to_string(DeviceClass cls) {
  switch (cls) {
    case DeviceClass::kMobileDdr: return "mobile_ddr";
    case DeviceClass::kFastEdram: return "fast_edram";
    case DeviceClass::kSlowPcm: return "slow_pcm";
  }
  return "?";
}

std::optional<DeviceClass> parse_device_class(std::string_view name) {
  return enum_by_name(name, std::array{DeviceClass::kMobileDdr,
                                       DeviceClass::kFastEdram,
                                       DeviceClass::kSlowPcm});
}

DeviceSpec fast_edram_like() {
  DeviceSpec spec;
  // Logic-process capacitors: a quarter of the density, roughly half the
  // row-cycle time of the mobile DDR baseline.
  spec.org.capacity_bits = 256ull * 1024 * 1024;
  spec.timing.tCAS_ns = 7.5;
  spec.timing.tRCD_ns = 7.5;
  spec.timing.tRP_ns = 7.5;
  spec.timing.tRAS_ns = 15.0;
  spec.timing.tRC_ns = 22.5;
  spec.timing.tRRD_ns = 5.0;
  spec.timing.tWR_ns = 7.5;
  spec.timing.tWTR_ns = 3.75;
  spec.timing.tRTP_ns = 3.75;
  // Short retention: refresh comes around 4x as often as the baseline's
  // 7.8 us tREFI - the fast cluster's price is refresh overhead.
  spec.timing.tRFC_ns = 40.0;
  spec.timing.tREFI_ns = 1950.0;
  spec.timing.tXP_ns = 5.0;
  spec.timing.tXSR_ns = 60.0;
  // Wide clock range so any channel of a heterogeneous system can follow
  // the base device's frequency (the whole system shares one clock).
  spec.timing.freq_min_mhz = 100.0;
  spec.timing.freq_max_mhz = 533.0;
  spec.power.vdd = 1.1;  // on-die logic-process array
  spec.power.idd0_ma = 30.0;
  spec.power.idd2n_ma = 12.0;
  spec.power.idd2p_ma = 0.4;
  spec.power.idd3n_ma = 20.0;
  spec.power.idd3p_ma = 1.2;
  spec.power.idd4r_ma = 70.0;
  spec.power.idd4w_ma = 68.0;
  spec.power.idd5_ma = 150.0;  // frequent short refresh bursts
  spec.power.idd6_ma = 0.3;
  return spec;
}

DeviceSpec slow_pcm_like() {
  DeviceSpec spec;
  // Dense non-volatile array: 4x the capacity per cluster.
  spec.org.capacity_bits = 2048ull * 1024 * 1024;
  spec.timing.tCAS_ns = 28.0;
  spec.timing.tRCD_ns = 55.0;  // array read into the row buffer
  spec.timing.tRP_ns = 25.0;
  spec.timing.tRAS_ns = 80.0;
  spec.timing.tRC_ns = 105.0;
  spec.timing.tRRD_ns = 12.0;
  spec.timing.tWR_ns = 120.0;  // cell program: the write-latency asymmetry
  spec.timing.tWTR_ns = 10.0;
  spec.timing.tRTP_ns = 7.5;
  // Non-volatile cells: no refresh machinery at all. tREFI = 0 is the
  // refresh-free marker (DerivedTiming::has_refresh()).
  spec.timing.tRFC_ns = 0.0;
  spec.timing.tREFI_ns = 0.0;
  spec.timing.tXP_ns = 10.0;
  spec.timing.tXSR_ns = 0.0;
  spec.timing.freq_min_mhz = 100.0;
  spec.timing.freq_max_mhz = 533.0;
  spec.power.idd0_ma = 25.0;
  spec.power.idd2n_ma = 8.0;  // cheap standby: nothing to keep alive
  spec.power.idd2p_ma = 0.3;
  spec.power.idd3n_ma = 14.0;
  spec.power.idd3p_ma = 1.0;
  spec.power.idd4r_ma = 60.0;
  spec.power.idd4w_ma = 180.0;  // programming current: writes cost ~3x reads
  spec.power.idd5_ma = 0.0;     // no refresh
  spec.power.idd6_ma = 0.0;     // no self refresh
  return spec;
}

DeviceSpec device_class_spec(DeviceClass cls, const DeviceSpec& base) {
  switch (cls) {
    case DeviceClass::kMobileDdr: return base;
    case DeviceClass::kFastEdram: return fast_edram_like();
    case DeviceClass::kSlowPcm: return slow_pcm_like();
  }
  return base;
}

}  // namespace mcm::dram
