// Host-side measurements and provenance: wall clock, process CPU time and
// peak RSS from getrusage, and the facts that make two results comparable
// (machine, compiler, build, SIMD dispatch, engine settings).
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace perfbench {

/// Steady-clock seconds (arbitrary epoch).
[[nodiscard]] double wall_now_s();

/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of the process, MiB (ru_maxrss).
[[nodiscard]] double peak_rss_mib();

/// CPU brand string from CPUID ("unknown" when unavailable).
[[nodiscard]] std::string cpu_model();

struct RunSettings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  unsigned clients = 0;
  unsigned sim_workers = 0;
  std::string describe;  // `git describe` of the checkout, as passed in
};

/// Provenance block stamped on every result and span file.
[[nodiscard]] mcm::obs::JsonValue provenance(const RunSettings& s);

}  // namespace perfbench
