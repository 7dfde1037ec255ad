#include "explore/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "video/h264_levels.hpp"

namespace mcm::explore {
namespace {

[[nodiscard]] std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

[[nodiscard]] bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

[[nodiscard]] double parse_double_token(const std::string& token,
                                        const std::string& key) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "': bad number '" + token + "'");
  }
}

[[nodiscard]] std::uint32_t parse_u32_token(const std::string& token,
                                            const std::string& key) {
  const double v = parse_double_token(token, key);
  const auto u = static_cast<std::uint32_t>(v);
  if (v <= 0 || static_cast<double>(u) != v) {
    throw ConfigError("config key '" + key + "': expected positive integer, got '" +
                      token + "'");
  }
  return u;
}

/// An integer key that must not be negative (a negative value would wrap
/// or be silently accepted downstream), nor exceed `max`.
[[nodiscard]] std::int64_t parse_count(const Config& cfg, const std::string& key,
                                       std::int64_t max) {
  const std::int64_t v = cfg.get_int(key, 0);
  if (v < 0 || v > max) {
    throw ConfigError("config key '" + key + "': expected an integer in [0, " +
                      std::to_string(max) + "], got " + std::to_string(v));
  }
  return v;
}

/// splitmix64 step, used to fold point coordinates into the seed chain.
[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + v + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

multichannel::SystemConfig ExplorePoint::system(
    const core::ExperimentConfig& base) const {
  multichannel::SystemConfig sys = base.base;
  sys.freq = Frequency{freq_mhz};
  sys.channels = channels;
  sys.interleave_bytes = interleave_bytes;
  sys.mux = mux;
  sys.controller.page_policy = page_policy;
  sys.controller.scheduler = scheduler;
  if (!classes.empty()) {
    std::string_view body = classes;
    if (const std::size_t at = body.find('@'); at != std::string_view::npos) {
      sys.vault_group = static_cast<std::uint32_t>(
          std::stoul(std::string(body.substr(at + 1))));
      body = body.substr(0, at);
    }
    sys.channel_classes.clear();
    sys.channel_classes.reserve(channels);
    for (std::uint32_t c = 0; c < channels; ++c) {
      switch (body[c % body.size()]) {
        case 'd': sys.channel_classes.push_back(dram::DeviceClass::kMobileDdr); break;
        case 'f': sys.channel_classes.push_back(dram::DeviceClass::kFastEdram); break;
        default: sys.channel_classes.push_back(dram::DeviceClass::kSlowPcm); break;
      }
    }
  }
  return sys;
}

video::UseCaseParams ExplorePoint::usecase(
    const core::ExperimentConfig& base) const {
  video::UseCaseParams uc = base.usecase;
  uc.level = level;
  return uc;
}

std::uint64_t ExplorePoint::seed(std::uint64_t base_seed) const {
  std::uint64_t h = mix(base_seed, 0x6d636d2e6578706cull);  // "mcm.expl"
  std::uint64_t freq_bits = 0;
  static_assert(sizeof freq_bits == sizeof freq_mhz);
  std::memcpy(&freq_bits, &freq_mhz, sizeof freq_bits);
  h = mix(h, freq_bits);
  h = mix(h, channels);
  h = mix(h, static_cast<std::uint64_t>(level));
  h = mix(h, static_cast<std::uint64_t>(page_policy));
  h = mix(h, static_cast<std::uint64_t>(scheduler));
  h = mix(h, interleave_bytes);
  h = mix(h, static_cast<std::uint64_t>(mux));
  // Mixed only for heterogeneous points so every pre-existing homogeneous
  // point keeps its seed (exploration results stay reproducible).
  if (!classes.empty()) {
    std::uint64_t ch = 0xcbf29ce484222325ull;  // FNV-1a over the token
    for (const char c : classes) {
      ch = (ch ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    h = mix(h, ch);
  }
  return h != 0 ? h : 1;  // load sources treat 0 as "unset"
}

std::string ExplorePoint::label() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "L%s/%uch/%.0fMHz",
                std::string(video::level_spec(level).name).c_str(), channels,
                freq_mhz);
  std::string s(buf);
  const ExplorePoint defaults{.freq_mhz = freq_mhz,
                              .channels = channels,
                              .level = level};
  if (page_policy != defaults.page_policy)
    s += std::string("/") + std::string(to_string(page_policy));
  if (scheduler != defaults.scheduler)
    s += std::string("/") + std::string(to_string(scheduler));
  if (interleave_bytes != defaults.interleave_bytes)
    s += "/" + std::to_string(interleave_bytes) + "B";
  if (mux != defaults.mux) s += std::string("/") + std::string(to_string(mux));
  if (!classes.empty()) s += "/cls:" + classes;
  return s;
}

std::size_t ExperimentSpec::size() const {
  return freq_mhz.size() * channels.size() * levels.size() *
         page_policies.size() * schedulers.size() * interleave_bytes.size() *
         address_muxes.size() * classes.size();
}

std::vector<ExplorePoint> ExperimentSpec::expand() const {
  if (size() == 0) {
    throw ConfigError("experiment spec has an empty axis (no points)");
  }
  std::vector<ExplorePoint> points;
  points.reserve(size());
  for (const auto level : levels) {
    for (const auto ch : channels) {
      for (const double f : freq_mhz) {
        for (const auto pp : page_policies) {
          for (const auto sched : schedulers) {
            for (const auto ib : interleave_bytes) {
              for (const auto mux : address_muxes) {
                for (const auto& cls : classes) {
                  points.push_back(ExplorePoint{.freq_mhz = f,
                                                .channels = ch,
                                                .level = level,
                                                .page_policy = pp,
                                                .scheduler = sched,
                                                .interleave_bytes = ib,
                                                .mux = mux,
                                                .classes = cls});
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

ExperimentSpec ExperimentSpec::paper_grid() {
  ExperimentSpec spec;
  spec.freq_mhz = core::paper_frequencies();
  spec.channels = core::paper_channel_counts();
  return spec;
}

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? text.size() : comma;
    std::string item = trim(text.substr(start, end - start));
    if (item.empty()) {
      throw ConfigError("empty item in list '" + std::string(text) + "'");
    }
    items.push_back(std::move(item));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return items;
}

video::H264Level parse_level(std::string_view token) {
  for (const auto level : video::kAllLevels) {
    if (token == video::level_spec(level).name) return level;
  }
  // Accept "4.0" for the level the spec table names "4".
  if (token == "4.0") return video::H264Level::k40;
  throw ConfigError("unknown H.264 level '" + std::string(token) +
                    "' (expected one of 3.1, 3.2, 4, 4.2, 5.2)");
}

ctrl::PagePolicy parse_page_policy(std::string_view token) {
  for (const auto p : {ctrl::PagePolicy::kOpen, ctrl::PagePolicy::kClosed,
                       ctrl::PagePolicy::kTimeout}) {
    if (iequals(token, to_string(p))) return p;
  }
  throw ConfigError("unknown page policy '" + std::string(token) +
                    "' (expected open|closed|timeout)");
}

ctrl::SchedulerPolicy parse_scheduler(std::string_view token) {
  for (const auto s : {ctrl::SchedulerPolicy::kFcfs, ctrl::SchedulerPolicy::kFrFcfs}) {
    if (iequals(token, to_string(s))) return s;
  }
  if (iequals(token, "frfcfs")) return ctrl::SchedulerPolicy::kFrFcfs;
  throw ConfigError("unknown scheduler '" + std::string(token) +
                    "' (expected FCFS|FR-FCFS)");
}

std::string parse_classes_token(std::string_view token) {
  if (token.empty() || iequals(token, "none") || token == "-") return "";
  std::string_view body = token;
  if (const std::size_t at = token.find('@'); at != std::string_view::npos) {
    body = token.substr(0, at);
    const std::string group(token.substr(at + 1));
    std::uint32_t g = 0;
    try {
      std::size_t pos = 0;
      g = static_cast<std::uint32_t>(std::stoul(group, &pos));
      if (pos != group.size()) g = 0;
    } catch (const std::exception&) {
      g = 0;
    }
    if (g < 2) {
      throw ConfigError("bad vault group in classes token '" +
                        std::string(token) + "' (want @G with G >= 2)");
    }
  }
  if (body.empty()) {
    throw ConfigError("classes token '" + std::string(token) +
                      "' has no class characters");
  }
  for (const char c : body) {
    if (c != 'd' && c != 'f' && c != 's') {
      throw ConfigError("bad class character '" + std::string(1, c) +
                        "' in classes token '" + std::string(token) +
                        "' (expected d=mobile_ddr, f=fast_edram, s=slow_pcm)");
    }
  }
  return std::string(token);
}

ctrl::AddressMux parse_address_mux(std::string_view token) {
  for (const auto m : {ctrl::AddressMux::kRBC, ctrl::AddressMux::kBRC,
                       ctrl::AddressMux::kRCB, ctrl::AddressMux::kRBCXor}) {
    if (iequals(token, to_string(m))) return m;
  }
  throw ConfigError("unknown address mux '" + std::string(token) +
                    "' (expected RBC|BRC|RCB|RBC-XOR)");
}

ExperimentSpec ExperimentSpec::from_config(const Config& cfg) {
  ExperimentSpec spec;
  for (const auto& [key, value] : cfg.entries()) {
    if (key == "grid.freq_mhz") {
      spec.freq_mhz.clear();
      for (const auto& t : split_list(value))
        spec.freq_mhz.push_back(parse_double_token(t, key));
    } else if (key == "grid.channels") {
      spec.channels.clear();
      for (const auto& t : split_list(value))
        spec.channels.push_back(parse_u32_token(t, key));
    } else if (key == "grid.levels") {
      spec.levels.clear();
      if (iequals(trim(value), "all")) {
        spec.levels.assign(video::kAllLevels.begin(), video::kAllLevels.end());
      } else {
        for (const auto& t : split_list(value))
          spec.levels.push_back(parse_level(t));
      }
    } else if (key == "grid.page_policy") {
      spec.page_policies.clear();
      for (const auto& t : split_list(value))
        spec.page_policies.push_back(parse_page_policy(t));
    } else if (key == "grid.scheduler") {
      spec.schedulers.clear();
      for (const auto& t : split_list(value))
        spec.schedulers.push_back(parse_scheduler(t));
    } else if (key == "grid.interleave_bytes") {
      spec.interleave_bytes.clear();
      for (const auto& t : split_list(value))
        spec.interleave_bytes.push_back(parse_u32_token(t, key));
    } else if (key == "grid.address_mux") {
      spec.address_muxes.clear();
      for (const auto& t : split_list(value))
        spec.address_muxes.push_back(parse_address_mux(t));
    } else if (key == "grid.channel_classes") {
      spec.classes.clear();
      for (const auto& t : split_list(value))
        spec.classes.push_back(parse_classes_token(t));
    } else if (key == "base.seed") {
      spec.base_seed = static_cast<std::uint64_t>(cfg.get_int(key, 1));
    } else if (key == "base.frames") {
      spec.base.sim.frames =
          static_cast<int>(parse_u32_token(trim(value), key));
    } else if (key == "base.gop_length") {
      spec.base.sim.gop_length = static_cast<int>(
          parse_count(cfg, key, std::numeric_limits<int>::max()));
    } else if (key == "base.processing_margin") {
      spec.base.sim.processing_margin = cfg.get_double(key, 0.15);
    } else if (key == "base.queue_depth") {
      spec.base.base.controller.queue_depth =
          parse_u32_token(trim(value), key);
    } else if (key == "base.powerdown_idle_cycles") {
      spec.base.base.controller.powerdown_idle_cycles =
          static_cast<int>(cfg.get_int(key, 1));
    } else if (key == "base.selfrefresh_idle_cycles") {
      spec.base.base.controller.selfrefresh_idle_cycles =
          static_cast<int>(cfg.get_int(key, -1));
    } else if (key == "base.refresh_postpone_max") {
      spec.base.base.controller.refresh_postpone_max =
          static_cast<std::uint32_t>(
              parse_count(cfg, key, std::numeric_limits<std::uint32_t>::max()));
    } else if (key.rfind("grid.", 0) == 0 || key.rfind("base.", 0) == 0) {
      throw ConfigError("unknown experiment spec key '" + key + "'");
    }
    // Other prefixes (screen.*, threads, report.*) belong to the
    // orchestrator/CLI layers and are ignored here.
  }
  return spec;
}

ExperimentSpec ExperimentSpec::from_file(const std::string& path) {
  return from_config(Config::from_file(path));
}

}  // namespace mcm::explore
