// Certification that the SIMD arbitration kernels are invisible in the
// results: every export must be byte-identical across MCM_SIMD in
// {on, off} x MCM_SIM_THREADS-style worker counts {1, 4}. The dispatch is
// sampled at controller
// construction, so flipping the environment between runs exercises the real
// runtime paths (the AVX2 kernel engages at queue depth >= kAvx2MinSlots;
// deep-queue cases below and ~1/6 of the fuzz scenarios reach it).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "controller/memory_controller.hpp"
#include "controller/soa_kernels.hpp"
#include "dram/spec.hpp"
#include "verify/differ.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

/// Scoped environment override (test-only; single-threaded test binary).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(SimdEquivalence, DispatchHonorsEnvironment) {
  {
    ScopedEnv off("MCM_SIMD", "off");
    EXPECT_EQ(ctrl::kernels::active_level(), ctrl::kernels::SimdLevel::kScalar);
  }
  {
    ScopedEnv scalar("MCM_SIMD", "scalar");
    EXPECT_EQ(ctrl::kernels::active_level(), ctrl::kernels::SimdLevel::kScalar);
  }
  // Default / "on": whatever the CPU supports; must be a valid level either
  // way and stable across calls.
  ScopedEnv on("MCM_SIMD", nullptr);
  EXPECT_EQ(ctrl::kernels::active_level(), ctrl::kernels::active_level());
}

/// 200 fuzz scenarios, each exported under every (simd, workers) combination
/// and byte-compared against the first export. Scenario worker counts stand
/// in for MCM_SIM_THREADS (run_production passes them straight to the
/// sharded engine).
TEST(SimdEquivalence, FuzzCasesByteIdenticalAcrossSimdAndThreads) {
  mcm::Rng master(2026);
  int deep_cases = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    Scenario s = random_scenario(case_seed);
    if (s.queue_depth >= ctrl::kernels::kAvx2MinSlots) ++deep_cases;

    std::string reference;
    for (const char* simd : {"on", "off"}) {
      for (unsigned workers : {1u, 4u}) {
        ScopedEnv env("MCM_SIMD", simd);
        s.sim_threads = workers;
        const std::string dump = outcome_to_json(run_production(s)).dump_string();
        if (reference.empty()) {
          reference = dump;
        } else {
          ASSERT_EQ(dump, reference)
              << "case seed 0x" << std::hex << case_seed << std::dec
              << " diverged at MCM_SIMD=" << simd << " workers=" << workers;
        }
      }
    }
  }
  // The sweep is only meaningful if some cases engage the vector kernel.
  EXPECT_GT(deep_cases, 0);
}

/// Deep-queue controller-level check: with queue_depth well above
/// kAvx2MinSlots the vector kernel arbitrates nearly every pick; the full
/// completion stream (times, horizons, stats) must match the forced-scalar
/// controller exactly.
TEST(SimdEquivalence, DeepQueueCompletionStreamMatchesScalar) {
  const dram::DeviceSpec spec = dram::DeviceSpec::next_gen_mobile_ddr();
  ctrl::ControllerConfig cfg;
  cfg.queue_depth = 64;

  // Mixed traffic: row runs, direction flips, bank jumps, pacing gaps.
  mcm::Rng rng(99);
  std::vector<ctrl::Request> reqs;
  std::int64_t t = 0;
  std::uint64_t row = 0;
  std::uint64_t bank = 0;
  bool write = false;
  for (int i = 0; i < 20000; ++i) {
    const auto kind = rng.next_below(10);
    if (kind < 3) row = rng.next_below(64);
    if (kind < 5) bank = rng.next_below(spec.org.banks);
    if (rng.next_below(3) == 0) write = !write;
    t += static_cast<std::int64_t>(rng.next_below(4000));
    ctrl::Request r;
    r.addr = row * spec.org.row_bytes * spec.org.banks +
             bank * spec.org.row_bytes +
             rng.next_below(64) * spec.org.bytes_per_burst();
    r.is_write = write;
    r.arrival = Time{t};
    reqs.push_back(r);
  }

  const auto run = [&](const char* simd) {
    ScopedEnv env("MCM_SIMD", simd);
    ctrl::MemoryController mc(spec, Frequency{200.0}, ctrl::AddressMux::kRBC,
                              cfg);
    std::vector<ctrl::Completion> out;
    out.reserve(reqs.size());
    for (const auto& r : reqs) {
      while (!mc.can_accept()) out.push_back(mc.process_one());
      mc.enqueue(r);
    }
    while (mc.has_pending()) out.push_back(mc.process_one());
    mc.finalize(out.back().done);
    return std::make_tuple(out, mc.stats().reads, mc.stats().writes,
                           mc.stats().row_hits, mc.ledger().t_active_standby);
  };

  const auto vec = run("on");
  const auto sca = run("off");
  const auto& cv = std::get<0>(vec);
  const auto& cs = std::get<0>(sca);
  ASSERT_EQ(cv.size(), cs.size());
  for (std::size_t i = 0; i < cv.size(); ++i) {
    ASSERT_EQ(cv[i].req.addr, cs[i].req.addr) << "completion " << i;
    ASSERT_EQ(cv[i].first_command.ps(), cs[i].first_command.ps())
        << "completion " << i;
    ASSERT_EQ(cv[i].done.ps(), cs[i].done.ps()) << "completion " << i;
  }
  EXPECT_EQ(std::get<1>(vec), std::get<1>(sca));
  EXPECT_EQ(std::get<2>(vec), std::get<2>(sca));
  EXPECT_EQ(std::get<3>(vec), std::get<3>(sca));
  EXPECT_EQ(std::get<4>(vec).ps(), std::get<4>(sca).ps());
}

}  // namespace
}  // namespace mcm::verify
