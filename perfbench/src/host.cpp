#include "host.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "controller/soa_kernels.hpp"
#include "core/sharded_engine.hpp"
#include "load/stream_cache.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u) {
    return "unknown";
  }
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

mcm::obs::JsonValue provenance(const RunSettings& s) {
  using mcm::obs::JsonValue;
  JsonValue p = JsonValue::object();
  p["nproc"] = std::thread::hardware_concurrency();
  p["cpu_model"] = cpu_model();
#if defined(__clang__)
  p["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  p["compiler"] = std::string("gcc ") + __VERSION__;
#else
  p["compiler"] = "unknown";
#endif
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["git_describe"] = s.describe.empty() ? std::string("unknown") : s.describe;
  p["simd_compiled"] = std::string(mcm::ctrl::kernels::compiled_isa());
  p["simd_active"] =
      std::string(mcm::ctrl::kernels::to_string(mcm::ctrl::kernels::active_level()));
  p["pool_threads"] = s.clients;
  p["sim_workers"] = s.sim_workers;
  p["sim_chunk"] = mcm::core::resolve_sim_chunk(0);
  p["stream_cache"] = mcm::load::StreamCache::enabled();
  JsonValue env = JsonValue::object();
  for (const char* name : {"MCM_SIM_THREADS", "MCM_SIM_CHUNK", "MCM_SIM_SPEC", "MCM_SIMD",
                           "MCM_ARENA", "MCM_STREAM_CACHE", "MCM_THREADS"}) {
    const char* v = std::getenv(name);
    if (v != nullptr) env[name] = v;
  }
  p["mcm_env"] = std::move(env);
  p["workload"] = s.workload;
  p["seed"] = s.seed;
  p["run_seconds"] = s.seconds;
  p["trace"] = s.trace;
  return p;
}

}  // namespace perfbench
