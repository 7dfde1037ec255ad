#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mcm {

std::string trim(std::string_view s) {
  const auto* first = std::find_if_not(s.begin(), s.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
  const auto* last = std::find_if_not(s.rbegin(), s.rend(), [](unsigned char c) {
                       return std::isspace(c) != 0;
                     }).base();
  return first < last ? std::string{first, last} : std::string{};
}

std::optional<std::int64_t> parse_int64(std::string_view token) {
  const std::string text(token);
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 0);
  if (errno == ERANGE || end != text.c_str() + text.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view token) {
  const std::string text(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || errno == ERANGE || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return v;
}

Config Config::from_string(std::string_view text) {
  Config cfg;
  std::size_t pos = 0;
  int lineno = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++lineno;

    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;

    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("config line " + std::to_string(lineno) + ": missing '='");
    }
    std::string key = trim(std::string_view{stripped}.substr(0, eq));
    std::string value = trim(std::string_view{stripped}.substr(eq + 1));
    if (key.empty()) {
      throw ConfigError("config line " + std::to_string(lineno) + ": empty key");
    }
    cfg.set(std::move(key), std::move(value));
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_string(ss.str());
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

bool Config::has(const std::string& key) const { return entries_.contains(key); }

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key, std::string def) const {
  return get(key).value_or(std::move(def));
}

double Config::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  if (const auto parsed = parse_double(*v)) return *parsed;
  throw ConfigError("config key '" + key + "': '" + *v + "' is not a number");
}

bool Config::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw ConfigError("config key '" + key + "': '" + *v + "' is not a boolean");
}

}  // namespace mcm
