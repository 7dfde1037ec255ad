#include "verify/scenario.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "load/stream_cache.hpp"
#include "workload/generators.hpp"

namespace mcm::verify {

std::string_view to_string(InjectedBug b) {
  switch (b) {
    case InjectedBug::kNone: return "none";
    case InjectedBug::kIgnoreTwtr: return "ignore-twtr";
    case InjectedBug::kIgnoreTras: return "ignore-tras";
    case InjectedBug::kFreePowerdownExit: return "free-powerdown-exit";
  }
  return "?";
}

std::optional<InjectedBug> parse_injected_bug(std::string_view name) {
  return enum_by_name(name, std::array{InjectedBug::kNone, InjectedBug::kIgnoreTwtr,
                                       InjectedBug::kIgnoreTras,
                                       InjectedBug::kFreePowerdownExit});
}

multichannel::SystemConfig Scenario::system_config() const {
  multichannel::SystemConfig cfg;
  cfg.device = dram::device_spec(parse_name("device spec", device, &dram::parse_device_preset));
  cfg.freq = Frequency(static_cast<double>(freq_mhz));
  cfg.channels = channels;
  cfg.interleave_bytes = interleave_bytes;
  cfg.mux = parse_name("address mux", mux, &ctrl::parse_address_mux);
  cfg.controller.page_policy = parse_name("page policy", page_policy, &ctrl::parse_page_policy);
  cfg.controller.page_timeout_cycles = page_timeout_cycles;
  cfg.controller.scheduler = parse_name("scheduler", scheduler, &ctrl::parse_scheduler);
  cfg.controller.queue_depth = queue_depth;
  cfg.controller.powerdown_idle_cycles = powerdown_idle_cycles;
  cfg.controller.selfrefresh_idle_cycles = selfrefresh_idle_cycles;
  cfg.controller.refresh_postpone_max = refresh_postpone_max;
  cfg.controller.max_skips = max_skips;
  cfg.controller.stream_row_hits = stream_row_hits;
  cfg.interconnect.latency = Time{interconnect_latency_ps};
  cfg.interconnect.request_interval_cycles = request_interval_cycles;
  cfg.channel_classes.reserve(channel_classes.size());
  for (const std::string& name : channel_classes) {
    cfg.channel_classes.push_back(parse_name("device class", name, &dram::parse_device_class));
  }
  cfg.vault_group = vault_group;
  return cfg;
}

std::uint64_t Scenario::total_requests() const {
  std::uint64_t n = 0;
  for (const auto& f : frames) {
    for (const auto& st : f.stages) n += st.reqs.size();
  }
  return n;
}

namespace {

/// One stage's request stream. Patterns are chosen to stress specific
/// controller machinery: sequential runs (row-hit streaming), row ping-pong
/// (conflicts + tRC), bank sweeps (tRRD/tFAW), random scatter (mixed), and
/// hot-row column hammering (long same-row runs with direction changes).
std::vector<std::uint64_t> random_stream(Rng& rng, std::uint64_t span_bytes,
                                         std::uint32_t burst_bytes,
                                         std::uint64_t row_stride,
                                         std::size_t count) {
  const std::uint64_t bursts = std::max<std::uint64_t>(span_bytes / burst_bytes, 1);
  const auto pick_base = [&] { return rng.next_below(bursts) * burst_bytes; };

  // Direction mode for the whole stage.
  const int dir_mode = static_cast<int>(rng.next_below(5));
  std::uint64_t run = 1 + rng.next_below(8);
  const auto is_write_at = [&](std::size_t i) {
    switch (dir_mode) {
      case 0: return false;                          // all reads
      case 1: return true;                           // all writes
      case 2: return i % 2 == 1;                     // strict alternation
      case 3: return (i / run) % 2 == 1;             // runs of one direction
      default: return rng.next_below(10) < 3;        // 30 % writes
    }
  };

  std::vector<std::uint64_t> out;
  out.reserve(count);
  const int pattern = static_cast<int>(rng.next_below(5));
  switch (pattern) {
    case 0: {  // sequential run
      std::uint64_t a = pick_base();
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(load::CachedStage::pack(a % span_bytes, is_write_at(i)));
        a += burst_bytes;
      }
      break;
    }
    case 1: {  // ping-pong between two rows (same bank under RBC)
      const std::uint64_t a = pick_base();
      const std::uint64_t b = a + row_stride * (1 + rng.next_below(4));
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t base = (i % 2 == 0) ? a : b;
        out.push_back(load::CachedStage::pack(
            (base + (i / 2) * burst_bytes) % span_bytes, is_write_at(i)));
      }
      break;
    }
    case 2: {  // bank sweep: consecutive rows rotate banks under RBC
      const std::uint64_t a = pick_base();
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(load::CachedStage::pack(
            (a + i * row_stride) % span_bytes, is_write_at(i)));
      }
      break;
    }
    case 3: {  // random scatter across the span
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(load::CachedStage::pack(pick_base(), is_write_at(i)));
      }
      break;
    }
    default: {  // hot row: random columns within one row
      const std::uint64_t base = (pick_base() / row_stride) * row_stride;
      const std::uint64_t cols = std::max<std::uint64_t>(row_stride / burst_bytes, 1);
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(load::CachedStage::pack(
            (base + rng.next_below(cols) * burst_bytes) % span_bytes,
            is_write_at(i)));
      }
      break;
    }
  }
  return out;
}

/// One stage's request stream drawn from a sampled workload/ synthetic
/// generator, so the differential oracle exercises exactly the address
/// patterns the workload subsystem can compose.
std::vector<std::uint64_t> generator_stream(Rng& rng, std::uint64_t span_bytes,
                                            std::uint32_t burst_bytes,
                                            std::size_t count) {
  static constexpr const char* kKinds[] = {"sequential", "strided",
                                           "pointer_chase", "uniform_random"};
  workload::GeneratorParams p;
  p.name = "fuzz-gen";
  p.base = 0;
  p.window_bytes = std::max<std::uint64_t>(span_bytes, burst_bytes);
  p.bytes = static_cast<std::uint64_t>(count) * burst_bytes;
  p.burst_bytes = burst_bytes;
  p.stride_bytes = static_cast<std::uint64_t>(burst_bytes) << rng.next_below(8);
  static constexpr double kWrites[] = {0.0, 1.0, 0.3, 0.5};
  p.write_fraction = kWrites[rng.next_below(4)];
  p.seed = rng.next_u64();
  auto gen = workload::make_generator(kKinds[rng.next_below(4)], std::move(p));
  std::vector<std::uint64_t> out;
  out.reserve(count);
  while (!gen->done()) {
    const ctrl::Request r = gen->head();
    out.push_back(load::CachedStage::pack(r.addr % span_bytes, r.is_write));
    gen->advance();
  }
  return out;
}

}  // namespace

Scenario random_scenario(std::uint64_t seed, bool workload_generators,
                         bool hetero_classes) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;

  // Device + frequency (each device has its own DDR clock range).
  switch (rng.next_below(8)) {
    case 0:
    case 1:
    case 2:
    case 3: {
      s.device = "next_gen_mobile_ddr";
      static constexpr std::uint32_t kFreqs[] = {200, 266, 333, 400, 466, 533};
      s.freq_mhz = kFreqs[rng.next_below(6)];
      break;
    }
    case 4:
    case 5: {
      s.device = "eight_bank_future";  // tFAW-constrained, 8 banks
      static constexpr std::uint32_t kFreqs[] = {200, 333, 400, 533};
      s.freq_mhz = kFreqs[rng.next_below(4)];
      break;
    }
    case 6: {
      s.device = "mobile_ddr_2008";
      static constexpr std::uint32_t kFreqs[] = {133, 166, 200};
      s.freq_mhz = kFreqs[rng.next_below(3)];
      break;
    }
    default: {
      s.device = "wide_io_like";
      static constexpr std::uint32_t kFreqs[] = {133, 200, 266};
      s.freq_mhz = kFreqs[rng.next_below(3)];
      break;
    }
  }
  const dram::DeviceSpec spec = dram::device_spec(*dram::parse_device_preset(s.device));
  const std::uint32_t burst = spec.org.bytes_per_burst();

  static constexpr std::uint32_t kChannels[] = {1, 2, 4, 8};
  s.channels = kChannels[rng.next_below(4)];
  s.interleave_bytes = burst << rng.next_below(3);  // G, 2G, 4G

  static constexpr const char* kMux[] = {"RBC", "RBC", "RBC", "BRC", "RCB", "RBC-XOR"};
  s.mux = kMux[rng.next_below(6)];

  static constexpr const char* kPage[] = {"open", "open", "closed", "timeout"};
  s.page_policy = kPage[rng.next_below(4)];
  static constexpr std::uint32_t kTimeouts[] = {16, 64, 512};
  s.page_timeout_cycles = kTimeouts[rng.next_below(3)];
  s.scheduler = rng.next_below(10) < 7 ? "FR-FCFS" : "FCFS";
  static constexpr std::uint32_t kDepth[] = {1, 2, 4, 8, 16, 32};
  s.queue_depth = kDepth[rng.next_below(6)];
  static constexpr int kPd[] = {-1, 0, 1, 8};
  s.powerdown_idle_cycles = kPd[rng.next_below(4)];
  if (rng.next_below(10) < 3) {
    s.selfrefresh_idle_cycles = rng.next_below(2) == 0 ? 64 : 256;
  } else {
    s.selfrefresh_idle_cycles = -1;
  }
  static constexpr std::uint32_t kPostpone[] = {0, 0, 4, 8};
  s.refresh_postpone_max = kPostpone[rng.next_below(4)];
  static constexpr std::uint32_t kSkips[] = {0, 1, 4, 128};
  s.max_skips = kSkips[rng.next_below(4)];
  s.stream_row_hits = rng.next_below(2) == 0;

  static constexpr int kRic[] = {0, 0, 0, 1, 4};
  s.request_interval_cycles = kRic[rng.next_below(5)];
  static constexpr std::int64_t kLat[] = {0, 1000, 1000, 5000};
  s.interconnect_latency_ps = kLat[rng.next_below(4)];
  static constexpr std::int64_t kPeriod[] = {2'000'000, 20'000'000, 100'000'000,
                                             1'000'000'000};
  s.period_ps = kPeriod[rng.next_below(4)];
  // Inert engine fields; still drawn so every later draw, and every seed,
  // stays where it was.
  s.sim_threads = 1 + static_cast<unsigned>(rng.next_below(8));
  s.legacy_feed = rng.next_below(4) == 0;

  // Working set: mostly a few rows/banks (dense reuse), sometimes the whole
  // device (address wrap in the mapper).
  const std::uint64_t row_stride = spec.org.row_bytes;  // next row, same bank (RBC rotates banks)
  const std::uint64_t total =
      static_cast<std::uint64_t>(s.channels) * spec.org.capacity_bytes();
  std::uint64_t span;
  switch (rng.next_below(4)) {
    case 0: span = row_stride * spec.org.banks * 4; break;       // a few rows/bank
    case 1: span = row_stride * spec.org.banks * 64; break;      // working-set scale
    case 2: span = 4 * kMiB; break;
    default: span = total + row_stride; break;                   // wraps capacity
  }

  const int frames = 1 + static_cast<int>(rng.next_below(3));
  std::uint64_t budget = 200 + rng.next_below(1800);  // total request budget
  for (int f = 0; f < frames; ++f) {
    ScenarioFrame frame;
    const int stages = 1 + static_cast<int>(rng.next_below(4));
    for (int st = 0; st < stages; ++st) {
      ScenarioStage stage;
      stage.name = "f" + std::to_string(f) + "s" + std::to_string(st);
      stage.source = static_cast<std::uint16_t>(st);
      if (rng.next_below(10) != 0) {  // 10 % of stages are empty
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>(20 + rng.next_below(400), budget));
        // The extra draw happens only in generator mode, so plain
        // random_scenario(seed) output is unchanged by the flag's existence.
        if (workload_generators && rng.next_below(2) == 0) {
          stage.reqs = generator_stream(rng, span, burst, count);
        } else {
          stage.reqs = random_stream(rng, span, burst, row_stride, count);
        }
        budget -= std::min<std::uint64_t>(count, budget);
      }
      frame.stages.push_back(std::move(stage));
    }
    s.frames.push_back(std::move(frame));
  }

  // Heterogeneous channel classes, drawn after every legacy field so the
  // flag's extra draws cannot perturb the rest of the scenario: with the
  // classes stripped, a hetero scenario equals the plain one bit for bit.
  if (hetero_classes) {
    switch (rng.next_below(6)) {
      case 0:  // homogeneous legacy control case: no classes at all
        break;
      case 1:  // all-fast cluster
        s.channel_classes.assign(s.channels, "fast_edram");
        break;
      case 2:  // all-slow dense cluster
        s.channel_classes.assign(s.channels, "slow_pcm");
        break;
      case 3: {  // vault-grouped: classes + a shared-TSV bundle size
        static constexpr const char* kCls[] = {"mobile_ddr", "fast_edram",
                                               "slow_pcm"};
        for (std::uint32_t c = 0; c < s.channels; ++c) {
          s.channel_classes.push_back(kCls[rng.next_below(3)]);
        }
        s.vault_group = 2u << rng.next_below(2);  // 2 or 4
        break;
      }
      default: {  // mixed assignment, independent interfaces
        static constexpr const char* kCls[] = {"mobile_ddr", "fast_edram",
                                               "slow_pcm"};
        for (std::uint32_t c = 0; c < s.channels; ++c) {
          s.channel_classes.push_back(kCls[rng.next_below(3)]);
        }
        break;
      }
    }
  }
  return s;
}

obs::JsonValue scenario_to_json(const Scenario& s) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "mcm.repro/v1";
  doc["seed"] = std::uint64_t{s.seed};
  doc["device"] = s.device;
  doc["channels"] = s.channels;
  doc["freq_mhz"] = s.freq_mhz;
  doc["interleave_bytes"] = s.interleave_bytes;
  doc["mux"] = s.mux;
  obs::JsonValue& c = doc["controller"];
  c["page_policy"] = s.page_policy;
  c["page_timeout_cycles"] = s.page_timeout_cycles;
  c["scheduler"] = s.scheduler;
  c["queue_depth"] = s.queue_depth;
  c["powerdown_idle_cycles"] = s.powerdown_idle_cycles;
  c["selfrefresh_idle_cycles"] = s.selfrefresh_idle_cycles;
  c["refresh_postpone_max"] = s.refresh_postpone_max;
  c["max_skips"] = s.max_skips;
  c["stream_row_hits"] = s.stream_row_hits;
  doc["request_interval_cycles"] = s.request_interval_cycles;
  doc["interconnect_latency_ps"] = std::int64_t{s.interconnect_latency_ps};
  doc["period_ps"] = std::int64_t{s.period_ps};
  doc["sim_threads"] = s.sim_threads;
  doc["legacy_feed"] = s.legacy_feed;
  doc["inject"] = std::string(to_string(s.inject));
  // Emitted only when non-default so committed legacy repros stay
  // byte-identical.
  if (!s.channel_classes.empty()) {
    obs::JsonValue& classes = doc["channel_classes"];
    classes = obs::JsonValue::array();
    for (const std::string& c : s.channel_classes) classes.push(obs::JsonValue{c});
  }
  if (s.vault_group != 0) doc["vault_group"] = s.vault_group;
  obs::JsonValue& frames = doc["frames"];
  frames = obs::JsonValue::array();
  for (const auto& f : s.frames) {
    obs::JsonValue jf = obs::JsonValue::object();
    obs::JsonValue& stages = jf["stages"];
    stages = obs::JsonValue::array();
    for (const auto& st : f.stages) {
      obs::JsonValue js = obs::JsonValue::object();
      js["name"] = st.name;
      js["source"] = static_cast<std::uint32_t>(st.source);
      obs::JsonValue& reqs = js["reqs"];
      reqs = obs::JsonValue::array();
      for (const std::uint64_t r : st.reqs) reqs.push(obs::JsonValue{r});
      stages.push(std::move(js));
    }
    frames.push(std::move(jf));
  }
  return doc;
}

namespace {

bool set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

std::optional<Scenario> scenario_from_json(const obs::JsonValue& doc,
                                           std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<Scenario> {
    set_error(error, msg);
    return std::nullopt;
  };
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "mcm.repro/v1") {
    return fail("missing or unsupported schema (want mcm.repro/v1)");
  }
  Scenario s;
  std::string bad;  // first integer field that does not fit (never a wrapped cast)
  doc.read_integer("seed", s.seed, bad);
  if (const auto* v = doc.find("device")) s.device = v->as_string(s.device);
  doc.read_integer("channels", s.channels, bad);
  doc.read_integer("freq_mhz", s.freq_mhz, bad);
  doc.read_integer("interleave_bytes", s.interleave_bytes, bad);
  if (const auto* v = doc.find("mux")) s.mux = v->as_string(s.mux);
  if (const auto* c = doc.find("controller")) {
    if (const auto* v = c->find("page_policy")) s.page_policy = v->as_string(s.page_policy);
    c->read_integer("page_timeout_cycles", s.page_timeout_cycles, bad);
    if (const auto* v = c->find("scheduler")) s.scheduler = v->as_string(s.scheduler);
    c->read_integer("queue_depth", s.queue_depth, bad);
    c->read_integer("powerdown_idle_cycles", s.powerdown_idle_cycles, bad);
    c->read_integer("selfrefresh_idle_cycles", s.selfrefresh_idle_cycles, bad);
    c->read_integer("refresh_postpone_max", s.refresh_postpone_max, bad);
    c->read_integer("max_skips", s.max_skips, bad);
    if (const auto* v = c->find("stream_row_hits")) s.stream_row_hits = v->as_bool(s.stream_row_hits);
  }
  doc.read_integer("request_interval_cycles", s.request_interval_cycles, bad);
  doc.read_integer("interconnect_latency_ps", s.interconnect_latency_ps, bad);
  doc.read_integer("period_ps", s.period_ps, bad);
  doc.read_integer("sim_threads", s.sim_threads, bad);
  if (const auto* v = doc.find("legacy_feed")) s.legacy_feed = v->as_bool(s.legacy_feed);
  if (const auto* v = doc.find("inject")) {
    const auto bug = parse_injected_bug(v->as_string("none"));
    if (!bug.has_value()) return fail("unknown inject value");
    s.inject = *bug;
  }
  if (const auto* classes = doc.find("channel_classes")) {
    if (!classes->is_array()) return fail("channel_classes must be an array");
    for (std::size_t i = 0; i < classes->size(); ++i) {
      s.channel_classes.push_back(classes->at(i)->as_string());
    }
  }
  doc.read_integer("vault_group", s.vault_group, bad);
  if (!bad.empty()) return fail(bad + " is not an integer in range");
  const obs::JsonValue* frames = doc.find("frames");
  if (frames == nullptr || !frames->is_array()) return fail("missing frames array");
  for (std::size_t i = 0; i < frames->size(); ++i) {
    const obs::JsonValue* jf = frames->at(i);
    const obs::JsonValue* stages = jf != nullptr ? jf->find("stages") : nullptr;
    if (stages == nullptr || !stages->is_array()) return fail("frame missing stages");
    ScenarioFrame frame;
    for (std::size_t j = 0; j < stages->size(); ++j) {
      const obs::JsonValue* js = stages->at(j);
      if (js == nullptr) return fail("bad stage entry");
      ScenarioStage stage;
      if (const auto* v = js->find("name")) stage.name = v->as_string();
      js->read_integer("source", stage.source, bad);
      if (const auto* reqs = js->find("reqs")) {
        if (!reqs->is_array()) return fail("stage reqs must be an array");
        stage.reqs.reserve(reqs->size());
        for (std::size_t k = 0; k < reqs->size(); ++k) {
          const auto r = reqs->at(k)->as_integer<std::uint64_t>();
          if (!r) return fail("stage reqs must be unsigned integers");
          stage.reqs.push_back(*r);
        }
      }
      if (!bad.empty()) return fail("stage " + bad + " is not an integer in range");
      frame.stages.push_back(std::move(stage));
    }
    s.frames.push_back(std::move(frame));
  }
  if (s.frames.empty()) return fail("scenario has no frames");
  try {
    if (const auto e = s.system_config().validate()) return fail(e->message());
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  return s;
}

bool save_scenario(const Scenario& s, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  scenario_to_json(s).dump(out, 1);
  out << '\n';
  return static_cast<bool>(out);
}

std::optional<Scenario> load_scenario(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = obs::json_parse(buf.str(), error);
  if (!doc.has_value()) return std::nullopt;
  return scenario_from_json(*doc, error);
}

}  // namespace mcm::verify
