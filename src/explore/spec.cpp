#include "explore/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "video/h264_levels.hpp"

namespace mcm::explore {
namespace {

/// One comma-list axis: every item through its vocabulary's parser.
template <typename T>
[[nodiscard]] std::vector<T> parse_axis(const std::string& key,
                                        const std::string& value,
                                        std::optional<T> (*parse)(std::string_view)) {
  std::vector<T> out;
  for (const auto& t : split_list(value)) out.push_back(parse_name(key, t, parse));
  return out;
}

/// Channel-class token characters, indexed by dram::DeviceClass.
constexpr std::string_view kClassChars = "dfs";

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
      sys.vault_group = parse_int<std::uint32_t>(body.substr(at + 1)).value_or(0);
      body = body.substr(0, at);
    }
    sys.channel_classes.clear();
    sys.channel_classes.reserve(channels);
    for (std::uint32_t c = 0; c < channels; ++c) {
      const std::size_t cls = std::min<std::size_t>(kClassChars.find(body[c % body.size()]), 2);
      sys.channel_classes.push_back(static_cast<dram::DeviceClass>(cls));  // else slow
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

std::string parse_classes_token(std::string_view token) {
  if (token.empty() || iequals(token, "none") || token == "-") return "";
  std::string_view body = token;
  if (const std::size_t at = token.find('@'); at != std::string_view::npos) {
    body = token.substr(0, at);
    const auto g = parse_int<std::uint32_t>(token.substr(at + 1));
    if (!g || *g < 2) {
      throw ConfigError("bad vault group in classes token '" +
                        std::string(token) + "' (want @G with G >= 2)");
    }
  }
  if (body.empty()) {
    throw ConfigError("classes token '" + std::string(token) +
                      "' has no class characters");
  }
  for (const char c : body) {
    if (kClassChars.find(c) == std::string_view::npos) {
      throw ConfigError("bad class character '" + std::string(1, c) +
                        "' in classes token '" + std::string(token) +
                        "' (expected d=mobile_ddr, f=fast_edram, s=slow_pcm)");
    }
  }
  return std::string(token);
}

ExperimentSpec ExperimentSpec::from_config(const Config& cfg) {
  ExperimentSpec spec;
  for (const auto& [key, value] : cfg.entries()) {
    if (key == "grid.freq_mhz") {
      spec.freq_mhz = parse_axis(key, value, &parse_double);
    } else if (key == "grid.channels") {
      spec.channels = parse_axis(key, value, &parse_int<std::uint32_t>);
    } else if (key == "grid.levels") {
      spec.levels = iequals(trim(value), "all")
                        ? std::vector(video::kAllLevels.begin(), video::kAllLevels.end())
                        : parse_axis(key, value, &video::parse_level);
    } else if (key == "grid.page_policy") {
      spec.page_policies = parse_axis(key, value, &ctrl::parse_page_policy);
    } else if (key == "grid.scheduler") {
      spec.schedulers = parse_axis(key, value, &ctrl::parse_scheduler);
    } else if (key == "grid.interleave_bytes") {
      spec.interleave_bytes = parse_axis(key, value, &parse_int<std::uint32_t>);
    } else if (key == "grid.address_mux") {
      spec.address_muxes = parse_axis(key, value, &ctrl::parse_address_mux);
    } else if (key == "grid.channel_classes") {
      spec.classes.clear();
      for (const auto& t : split_list(value))
        spec.classes.push_back(parse_classes_token(t));
    } else if (key == "base.seed") {
      spec.base_seed = cfg.get_int<std::uint64_t>(key, 1);
    } else if (key == "base.frames") {
      spec.base.sim.frames = cfg.get_int<int>(key, 1);
    } else if (key == "base.gop_length") {
      spec.base.sim.gop_length = cfg.get_int<int>(key, 0);
    } else if (key == "base.processing_margin") {
      spec.base.sim.processing_margin = cfg.get_double(key, 0.15);
    } else if (key == "base.queue_depth") {
      spec.base.base.controller.queue_depth = cfg.get_int<std::uint32_t>(key, 16);
    } else if (key == "base.powerdown_idle_cycles") {
      spec.base.base.controller.powerdown_idle_cycles = cfg.get_int<int>(key, 1);
    } else if (key == "base.selfrefresh_idle_cycles") {
      spec.base.base.controller.selfrefresh_idle_cycles = cfg.get_int<int>(key, -1);
    } else if (key == "base.refresh_postpone_max") {
      spec.base.base.controller.refresh_postpone_max =
          cfg.get_int<std::uint32_t>(key, 0);
    } else if (key.rfind("grid.", 0) == 0 || key.rfind("base.", 0) == 0) {
      throw ConfigError("unknown experiment spec key '" + key + "'");
    }
    // Other prefixes (screen.*, threads, report.*) belong to the
    // orchestrator/CLI layers and are ignored here.
  }
  if (const auto error = spec.base.sim.validate()) {
    throw ConfigError("experiment spec: base." + error->message());
  }
  for (const auto& p : spec.expand()) {
    if (const auto error = p.system(spec.base).validate()) {
      throw ConfigError("experiment spec point " + p.label() + ": " +
                        error->message());
    }
  }
  return spec;
}

ExperimentSpec ExperimentSpec::from_file(const std::string& path) {
  const Config cfg = Config::from_file(path);
  try {
    return from_config(cfg);
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

}  // namespace mcm::explore
