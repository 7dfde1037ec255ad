// Property-based differential fuzzer: generate random scenarios, run each
// through the production simulator and the golden reference model, and
// compare every observable (per-request completion times via the trace
// spans, per-bank counters, energy-ledger totals, frame bookkeeping). On a
// mismatch the failing case is shrunk to a minimal repro and saved as
// `mcm.repro/v1` JSON for replay.
//
//   mcm_fuzz --cases 500 --seed 1            # fuzz 500 cases (CI smoke job)
//   mcm_fuzz --case-seed 0xdeadbeef          # rerun one generated case
//   mcm_fuzz --replay repro.json             # rerun a saved repro (writes
//                                            # nothing unless --out is given)
//   mcm_fuzz --cases 50 --seed 1 --inject ignore-twtr --expect-mismatch
//   mcm_fuzz --cases 200 --generators       # sample workload/ generators too
//   mcm_fuzz --cases 500 --classes          # heterogeneous channel classes
//
// Exit status: 0 = every case agreed (or, with --expect-mismatch, at least
// one case diverged); 1 = unexpected result; 2 = usage/setup error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "verify/differ.hpp"
#include "verify/scenario.hpp"
#include "verify/shrink.hpp"

namespace {

using mcm::verify::Scenario;

struct Options {
  std::uint64_t cases = 100;
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> case_seed;
  std::string inject;
  std::string out = "mcm_fuzz_failure.json";
  bool out_given = false;
  std::string replay;
  bool expect_mismatch = false;
  bool generators = false;
  bool classes = false;
  std::uint64_t shrink_attempts = 4000;
};

[[noreturn]] void usage(const char* argv0, int status) {
  std::fprintf(
      status == 0 ? stdout : stderr,
      "usage: %s [options]\n"
      "  --cases N          scenarios to fuzz (default 100)\n"
      "  --seed S           master seed; case seeds derive from it (default 1)\n"
      "  --case-seed X      run exactly one generated scenario\n"
      "  --inject BUG       break the reference model: ignore-twtr,\n"
      "                     ignore-tras, free-powerdown-exit\n"
      "  --out FILE         where to write the shrunken repro JSON\n"
      "                     (default mcm_fuzz_failure.json; --replay writes\n"
      "                     one only when --out is given)\n"
      "  --replay FILE      run a saved mcm.repro/v1 scenario instead\n"
      "  --expect-mismatch  invert the exit status (harness self-test)\n"
      "  --generators       draw ~half the stage streams from the workload\n"
      "                     subsystem's synthetic generators\n"
      "  --classes          draw random per-channel device classes (all-fast,\n"
      "                     all-slow, mixed, vault-grouped) per scenario\n"
      "  --shrink-attempts N  oracle budget for the shrinker (default 4000)\n",
      argv0);
  std::exit(status);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "mcm_fuzz: bad value '%s' for %s\n", s, flag);
    std::exit(2);
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mcm_fuzz: %s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], 0);
    } else if (std::strcmp(argv[i], "--expect-mismatch") == 0) {
      opt.expect_mismatch = true;
    } else if (std::strcmp(argv[i], "--generators") == 0) {
      opt.generators = true;
    } else if (std::strcmp(argv[i], "--classes") == 0) {
      opt.classes = true;
    } else if (const char* v = arg("--cases")) {
      opt.cases = parse_u64(v, "--cases");
    } else if (const char* v = arg("--seed")) {
      opt.seed = parse_u64(v, "--seed");
    } else if (const char* v = arg("--case-seed")) {
      opt.case_seed = parse_u64(v, "--case-seed");
    } else if (const char* v = arg("--inject")) {
      opt.inject = v;
    } else if (const char* v = arg("--out")) {
      opt.out = v;
      opt.out_given = true;
    } else if (const char* v = arg("--replay")) {
      opt.replay = v;
    } else if (const char* v = arg("--shrink-attempts")) {
      opt.shrink_attempts = parse_u64(v, "--shrink-attempts");
    } else {
      std::fprintf(stderr, "mcm_fuzz: unknown argument '%s'\n", argv[i]);
      usage(argv[0], 2);
    }
  }
  return opt;
}

/// Oracle shared by the fuzz loop and the shrinker. Production-side throws
/// (bad shrunken config) mean "not a usable candidate", reported as
/// agreement so the shrinker backs off; reference invariant failures are
/// mismatches (diff_scenario already maps those).
std::optional<std::string> oracle(const Scenario& s) {
  try {
    return mcm::verify::diff_scenario(s);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Returns true when the scenario mismatches (after printing and, when
/// `shrink` is set, shrinking and saving the repro).
bool handle_case(const Scenario& scenario, const Options& opt, bool shrink) {
  std::optional<std::string> mismatch;
  try {
    mismatch = mcm::verify::diff_scenario(scenario);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcm_fuzz: case seed 0x%llx: simulator error: %s\n",
                 static_cast<unsigned long long>(scenario.seed), e.what());
    return true;
  }
  if (!mismatch.has_value()) return false;

  std::fprintf(stderr,
               "mcm_fuzz: MISMATCH at case seed 0x%llx (%llu requests):\n  %s\n",
               static_cast<unsigned long long>(scenario.seed),
               static_cast<unsigned long long>(scenario.total_requests()),
               mismatch->c_str());
  if (!shrink) return true;
  std::fprintf(stderr, "mcm_fuzz: shrinking (budget %llu runs)...\n",
               static_cast<unsigned long long>(opt.shrink_attempts));
  const mcm::verify::ShrinkResult shrunk = mcm::verify::shrink_scenario(
      scenario, *mismatch, oracle, opt.shrink_attempts);
  std::fprintf(stderr,
               "mcm_fuzz: shrunk to %llu requests in %llu runs:\n  %s\n",
               static_cast<unsigned long long>(shrunk.scenario.total_requests()),
               static_cast<unsigned long long>(shrunk.attempts),
               shrunk.mismatch.c_str());
  if (mcm::verify::save_scenario(shrunk.scenario, opt.out)) {
    std::fprintf(stderr, "mcm_fuzz: repro written to %s\n", opt.out.c_str());
    std::fprintf(stderr, "mcm_fuzz: replay with: mcm_fuzz --replay %s%s\n",
                 opt.out.c_str(),
                 shrunk.scenario.inject == mcm::verify::InjectedBug::kNone
                     ? ""
                     : "  (repro carries the injected bug)");
  } else {
    std::fprintf(stderr, "mcm_fuzz: cannot write repro to %s\n", opt.out.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  mcm::verify::InjectedBug inject = mcm::verify::InjectedBug::kNone;
  if (!opt.inject.empty()) {
    const auto parsed = mcm::verify::parse_injected_bug(opt.inject);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "mcm_fuzz: unknown --inject '%s'\n", opt.inject.c_str());
      return 2;
    }
    inject = *parsed;
  }

  bool mismatched = false;
  if (!opt.replay.empty()) {
    std::string error;
    const auto loaded = mcm::verify::load_scenario(opt.replay, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "mcm_fuzz: cannot load %s: %s\n", opt.replay.c_str(),
                   error.c_str());
      return 2;
    }
    Scenario s = *loaded;
    if (inject != mcm::verify::InjectedBug::kNone) s.inject = inject;
    std::printf("mcm_fuzz: replaying %s (%llu requests, inject=%s)\n",
                opt.replay.c_str(),
                static_cast<unsigned long long>(s.total_requests()),
                std::string(to_string(s.inject)).c_str());
    // A replayed repro is already shrunk; save a re-shrunk copy only on
    // request, so replaying never drops files into the working directory.
    mismatched = handle_case(s, opt, opt.out_given);
  } else if (opt.case_seed.has_value()) {
    Scenario s = mcm::verify::random_scenario(*opt.case_seed, opt.generators,
                                              opt.classes);
    s.inject = inject;
    std::printf("mcm_fuzz: case seed 0x%llx (%llu requests)\n",
                static_cast<unsigned long long>(*opt.case_seed),
                static_cast<unsigned long long>(s.total_requests()));
    mismatched = handle_case(s, opt, true);
  } else {
    std::printf("mcm_fuzz: %llu cases from master seed %llu%s\n",
                static_cast<unsigned long long>(opt.cases),
                static_cast<unsigned long long>(opt.seed),
                inject == mcm::verify::InjectedBug::kNone
                    ? ""
                    : " with an injected reference bug");
    mcm::Rng master(opt.seed);
    std::uint64_t requests_total = 0;
    for (std::uint64_t i = 0; i < opt.cases; ++i) {
      const std::uint64_t case_seed = master.next_u64();
      Scenario s =
          mcm::verify::random_scenario(case_seed, opt.generators, opt.classes);
      s.inject = inject;
      requests_total += s.total_requests();
      if (handle_case(s, opt, true)) {
        mismatched = true;
        break;  // one shrunken repro is the actionable artifact
      }
      if ((i + 1) % 100 == 0) {
        std::printf("mcm_fuzz: %llu/%llu cases clean (%llu requests)\n",
                    static_cast<unsigned long long>(i + 1),
                    static_cast<unsigned long long>(opt.cases),
                    static_cast<unsigned long long>(requests_total));
        std::fflush(stdout);
      }
    }
    if (!mismatched) {
      std::printf("mcm_fuzz: all %llu cases agree (%llu requests compared)\n",
                  static_cast<unsigned long long>(opt.cases),
                  static_cast<unsigned long long>(requests_total));
    }
  }

  if (opt.expect_mismatch) {
    if (mismatched) {
      std::printf("mcm_fuzz: mismatch detected, as expected\n");
      return 0;
    }
    std::fprintf(stderr, "mcm_fuzz: expected a mismatch but every case agreed\n");
    return 1;
  }
  return mismatched ? 1 : 0;
}
