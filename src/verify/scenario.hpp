// A fuzz scenario: one fully-specified differential-verification case —
// system configuration (device, channels, frequency, controller policy
// knobs, engine settings) plus the frame/stage request streams to drive
// through it. Scenarios are pure data: a scenario plus the code revision
// determines both simulators' outputs bit-exactly, which is what makes a
// mismatch replayable. Serialized as `mcm.repro/v1` JSON so shrunken
// repros can be committed and loaded by a ctest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "multichannel/memory_system.hpp"
#include "obs/json.hpp"

namespace mcm::verify {

/// Deliberate timing bugs that can be injected into the *reference* model
/// so the harness can prove it detects (and shrinks) real divergences.
enum class InjectedBug : std::uint8_t {
  kNone,
  kIgnoreTwtr,          // drop the write-to-read turnaround constraint
  kIgnoreTras,          // allow precharge before the tRAS minimum
  kFreePowerdownExit,   // wake from power-down without the tXP penalty
};

[[nodiscard]] std::string_view to_string(InjectedBug b);
[[nodiscard]] std::optional<InjectedBug> parse_injected_bug(std::string_view name);

/// One stage of a frame's state machine: its requests all arrive at the
/// stage start, packed with the stream-cache convention (addr | write<<63).
struct ScenarioStage {
  std::string name;
  std::uint16_t source = 0;
  std::vector<std::uint64_t> reqs;

  friend bool operator==(const ScenarioStage&, const ScenarioStage&) = default;
};

struct ScenarioFrame {
  std::vector<ScenarioStage> stages;

  friend bool operator==(const ScenarioFrame&, const ScenarioFrame&) = default;
};

struct Scenario {
  std::uint64_t seed = 0;  // generation seed (0 for hand-written scenarios)

  // Device + system shape. The device is named so the JSON form stays a
  // small self-contained document (specs are code, not data).
  std::string device = "next_gen_mobile_ddr";
  std::uint32_t channels = 4;
  std::uint32_t freq_mhz = 400;  // integral so the JSON round trip is exact
  std::uint32_t interleave_bytes = 16;
  std::string mux = "RBC";

  // Controller policy knobs (mirrors ctrl::ControllerConfig).
  std::string page_policy = "open";
  std::uint32_t page_timeout_cycles = 512;
  std::string scheduler = "FR-FCFS";
  std::uint32_t queue_depth = 16;
  int powerdown_idle_cycles = 1;
  int selfrefresh_idle_cycles = -1;
  std::uint32_t refresh_postpone_max = 0;
  std::uint32_t max_skips = 128;
  bool stream_row_hits = true;

  // Front end + engine.
  int request_interval_cycles = 0;
  std::int64_t interconnect_latency_ps = 1000;
  std::int64_t period_ps = 33'333'333;  // frame period
  // Inert: the engine has one feed. Drawn, read and written only so seeds
  // and committed repros stay byte-stable.
  unsigned sim_threads = 1;
  bool legacy_feed = false;

  InjectedBug inject = InjectedBug::kNone;

  // Heterogeneous channel clusters: one device-class name per channel
  // ("mobile_ddr", "fast_edram", "slow_pcm"). Empty = legacy homogeneous
  // system (every channel binds `device`). `vault_group` >= 2 groups that
  // many consecutive channels onto one shared-TSV stacked interface.
  std::vector<std::string> channel_classes;
  std::uint32_t vault_group = 0;

  std::vector<ScenarioFrame> frames;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// Production-side system configuration for this scenario. Throws
  /// std::invalid_argument on an unknown device/mux/policy name.
  [[nodiscard]] multichannel::SystemConfig system_config() const;

  [[nodiscard]] std::uint64_t total_requests() const;
};

/// Deterministically generate a random scenario from `seed`: the same seed
/// always yields the same scenario on every platform. With
/// `workload_generators` set, roughly half of the non-empty stages draw
/// their request stream from a sampled workload/ synthetic generator
/// (sequential, strided, pointer-chase, uniform-random) instead of the
/// built-in patterns. With `hetero_classes` set, scenarios additionally draw
/// a per-channel device-class assignment (all-fast, all-slow, mixed, or
/// vault-grouped). Each flag's extra draws happen only when it is set, so
/// (seed, flags) together stay fully deterministic and plain
/// random_scenario(seed) output is unchanged by the flags' existence.
[[nodiscard]] Scenario random_scenario(std::uint64_t seed,
                                       bool workload_generators = false,
                                       bool hetero_classes = false);

/// `mcm.repro/v1` (de)serialization.
[[nodiscard]] obs::JsonValue scenario_to_json(const Scenario& s);
[[nodiscard]] std::optional<Scenario> scenario_from_json(const obs::JsonValue& doc,
                                                         std::string* error = nullptr);
bool save_scenario(const Scenario& s, const std::string& path);
[[nodiscard]] std::optional<Scenario> load_scenario(const std::string& path,
                                                    std::string* error = nullptr);

}  // namespace mcm::verify
