#include "workload/spec.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/frame_simulator.hpp"

namespace mcm::workload {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

void get_string(const obs::JsonValue& obj, std::string_view key, std::string& out) {
  if (const auto* v = obj.find(key)) out = v->as_string(out);
}

bool parse_tenant(const obs::JsonValue& doc, TenantSpec& t, std::size_t index,
                  std::string* error) {
  const std::string where = "tenant " + std::to_string(index);
  if (!doc.is_object()) return fail(error, where + ": not an object");
  get_string(doc, "name", t.name);
  get_string(doc, "kind", t.kind);
  if (t.name.empty()) t.name = t.kind + std::to_string(index);
  std::string bad;  // first integer field that does not fit
  doc.read_integer("partition_bytes", t.partition_bytes, bad);
  doc.read_integer("pace_ps", t.pace_ps, bad);
  doc.read_integer("max_requests", t.max_requests, bad);
  doc.read_integer("window_bytes", t.window_bytes, bad);
  doc.read_integer("bytes", t.bytes, bad);
  doc.read_integer("stride_bytes", t.stride_bytes, bad);
  doc.read_integer("seed", t.seed, bad);
  if (!bad.empty()) return fail(error, where + ": " + bad + " is not an integer in range");
  if (t.pace_ps < 0) return fail(error, where + ": pace_ps must be >= 0");

  if (t.kind == "video") {
    get_string(doc, "level", t.level);
    if (!video::parse_level(t.level)) {
      return fail(error, where + ": unknown H.264 level '" + t.level + "'");
    }
  } else if (t.kind == "trace") {
    get_string(doc, "path", t.path);
    get_string(doc, "format", t.format);
    if (t.path.empty()) return fail(error, where + ": trace tenant needs a path");
  } else if (t.kind == "generator") {
    get_string(doc, "generator", t.generator);
    if (const auto* v = doc.find("write_fraction")) {
      t.write_fraction = v->as_double(t.write_fraction);
    }
    if (t.generator != "sequential" && t.generator != "strided" &&
        t.generator != "pointer_chase" && t.generator != "uniform_random") {
      return fail(error, where + ": unknown generator '" + t.generator + "'");
    }
    if (t.write_fraction < 0.0 || t.write_fraction > 1.0) {
      return fail(error, where + ": write_fraction must be in [0,1]");
    }
    if (t.window_bytes == 0 || t.bytes == 0) {
      return fail(error, where + ": window_bytes and bytes must be positive");
    }
  } else {
    return fail(error, where + ": unknown kind '" + t.kind +
                           "' (expected video, trace, or generator)");
  }
  return true;
}

}  // namespace

multichannel::SystemConfig WorkloadSpec::system_config() const {
  multichannel::SystemConfig cfg;
  cfg.device = dram::device_spec(parse_name("device spec", device, &dram::parse_device_preset));
  cfg.freq = Frequency(static_cast<double>(freq_mhz));
  cfg.channels = channels;
  cfg.interleave_bytes = interleave_bytes;
  cfg.channel_classes.reserve(channel_classes.size());
  for (const std::string& name : channel_classes) {
    cfg.channel_classes.push_back(parse_name("device class", name, &dram::parse_device_class));
  }
  cfg.vault_group = vault_group;
  return cfg;
}

std::string WorkloadSpec::cache_key() const {
  std::ostringstream key;
  key << "workload|" << device << '|' << channels << '|' << freq_mhz << '|'
      << interleave_bytes << '|' << period_ps;
  // Appended only when configured so existing cache entries stay valid.
  if (!channel_classes.empty()) {
    key << "|classes";
    for (const std::string& c : channel_classes) key << ':' << c;
  }
  if (vault_group != 0) key << "|vault" << vault_group;
  for (const auto& t : tenants) {
    key << "||" << t.kind << '|' << t.name << '|' << t.partition_bytes << '|'
        << t.pace_ps;
    if (t.kind == "video") {
      key << '|' << t.level << '|' << t.max_requests;
    } else if (t.kind == "trace") {
      key << '|' << t.path << '|' << t.format;
    } else {
      key << '|' << t.generator << '|' << t.window_bytes << '|' << t.bytes
          << '|' << t.stride_bytes << '|' << t.write_fraction << '|' << t.seed;
    }
  }
  return key.str();
}

obs::JsonValue workload_to_json(const WorkloadSpec& s) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "mcm.workload/v1";
  doc["name"] = s.name;
  auto& sys = doc["system"];
  sys["device"] = s.device;
  sys["channels"] = s.channels;
  sys["freq_mhz"] = s.freq_mhz;
  sys["interleave_bytes"] = s.interleave_bytes;
  if (!s.channel_classes.empty()) {
    auto& classes = sys["channel_classes"];
    classes = obs::JsonValue::array();
    for (const std::string& c : s.channel_classes) classes.push(obs::JsonValue{c});
  }
  if (s.vault_group != 0) sys["vault_group"] = s.vault_group;
  doc["frames"] = s.frames;
  doc["period_ps"] = s.period_ps;
  auto& tenants = doc["tenants"];
  tenants = obs::JsonValue::array();
  for (const auto& t : s.tenants) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry["name"] = t.name;
    entry["kind"] = t.kind;
    if (t.partition_bytes != 0) entry["partition_bytes"] = t.partition_bytes;
    if (t.pace_ps != 0) entry["pace_ps"] = t.pace_ps;
    if (t.kind == "video") {
      entry["level"] = t.level;
      if (t.max_requests != 0) entry["max_requests"] = t.max_requests;
    } else if (t.kind == "trace") {
      entry["path"] = t.path;
      if (t.format != "auto") entry["format"] = t.format;
    } else {
      entry["generator"] = t.generator;
      entry["window_bytes"] = t.window_bytes;
      entry["bytes"] = t.bytes;
      if (t.generator == "strided") entry["stride_bytes"] = t.stride_bytes;
      if (t.write_fraction != 0.0) entry["write_fraction"] = t.write_fraction;
      entry["seed"] = t.seed;
    }
    tenants.push(std::move(entry));
  }
  return doc;
}

std::optional<WorkloadSpec> workload_from_json(const obs::JsonValue& doc,
                                               std::string* error) {
  const auto bail = [&](const std::string& message) -> std::optional<WorkloadSpec> {
    fail(error, message);
    return std::nullopt;
  };
  if (!doc.is_object()) return bail("workload document is not an object");
  const auto* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "mcm.workload/v1") {
    return bail("missing or unsupported schema (expected mcm.workload/v1)");
  }

  WorkloadSpec s;
  std::string bad;  // first integer field that does not fit
  get_string(doc, "name", s.name);
  if (const auto* sys = doc.find("system")) {
    if (!sys->is_object()) return bail("system is not an object");
    get_string(*sys, "device", s.device);
    sys->read_integer("channels", s.channels, bad);
    sys->read_integer("freq_mhz", s.freq_mhz, bad);
    sys->read_integer("interleave_bytes", s.interleave_bytes, bad);
    sys->read_integer("vault_group", s.vault_group, bad);
    if (!bad.empty()) return bail("system." + bad + " is not an integer in range");
    if (const auto* classes = sys->find("channel_classes")) {
      if (!classes->is_array()) return bail("channel_classes must be an array");
      for (std::size_t i = 0; i < classes->size(); ++i) {
        s.channel_classes.push_back(classes->at(i)->as_string());
      }
    }
  }
  doc.read_integer("frames", s.frames, bad);
  doc.read_integer("period_ps", s.period_ps, bad);
  if (!bad.empty()) return bail(bad + " is not an integer in range");

  try {
    if (const auto e = s.system_config().validate()) return bail("system." + e->message());
  } catch (const std::invalid_argument& e) {
    return bail(std::string("system: ") + e.what());
  }
  core::FrameSimOptions run;
  run.frames = s.frames;
  if (const auto e = run.validate()) return bail(e->message());
  if (s.period_ps <= 0) return bail("period_ps must be positive");

  const auto* tenants = doc.find("tenants");
  if (tenants == nullptr || !tenants->is_array() || tenants->size() == 0) {
    return bail("workload needs a non-empty tenants array");
  }
  for (std::size_t i = 0; i < tenants->size(); ++i) {
    TenantSpec t;
    if (!parse_tenant(*tenants->at(i), t, i, error)) return std::nullopt;
    s.tenants.push_back(std::move(t));
  }
  return s;
}

bool save_workload(const WorkloadSpec& s, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  workload_to_json(s).dump(out);
  out << '\n';
  return static_cast<bool>(out);
}

std::optional<WorkloadSpec> load_workload(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open workload spec '" + path + "'");
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  const auto doc = obs::json_parse(text.str(), &parse_error);
  if (!doc) {
    fail(error, path + ": " + parse_error);
    return std::nullopt;
  }
  auto spec = workload_from_json(*doc, error);
  if (!spec) {
    if (error != nullptr) *error = path + ": " + *error;
    return std::nullopt;
  }

  // Resolve tenant trace paths against the spec file's directory so a
  // committed scenario works from any working directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "" : path.substr(0, slash + 1);
  if (!dir.empty()) {
    for (auto& t : spec->tenants) {
      if (t.kind == "trace" && !t.path.empty() && t.path.front() != '/') {
        t.path = dir + t.path;
      }
    }
  }
  return spec;
}

}  // namespace mcm::workload
