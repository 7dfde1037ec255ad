// Tiny typed key-value configuration store. Accepts "key = value" lines
// ('#' comments), used by examples and tests to override simulator presets
// without recompiling. Also home of the pieces every config front end
// shares: the token parses, the enum name lookup, and FieldError.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace mcm {

class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A field that failed validation. Front ends add their file or key.
struct FieldError {
  std::string field;   // path in the config struct: "controller.queue_depth"
  std::string reason;  // "must be >= 1"
  [[nodiscard]] std::string message() const { return field + " " + reason; }
};

[[nodiscard]] std::string trim(std::string_view s);

/// The whole token as an integer in C syntax (decimal, 0x hex, 0 octal);
/// nullopt on trailing characters or overflow.
[[nodiscard]] std::optional<std::int64_t> parse_int64(std::string_view token);

/// parse_int64 narrowed to T: nullopt where a cast would wrap.
template <std::integral T>
[[nodiscard]] std::optional<T> parse_int(std::string_view token) {
  const auto v = parse_int64(token);
  if (!v || !std::in_range<T>(*v)) return std::nullopt;
  return static_cast<T>(*v);
}

/// The whole token as a double; nullopt on trailing characters.
[[nodiscard]] std::optional<double> parse_double(std::string_view token);

/// ASCII case-insensitive equality.
[[nodiscard]] constexpr bool iequals(std::string_view a, std::string_view b) {
  const auto lower = [](char c) { return c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c; };
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && lower(a[i]) == lower(b[i])) ++i;
  return i == a.size() && i == b.size();
}

/// The value of `all` whose to_string() is `name` in any case.
template <typename Enum, std::size_t N>
[[nodiscard]] constexpr std::optional<Enum> enum_by_name(
    std::string_view name, const std::array<Enum, N>& all) {
  for (const Enum v : all) {
    if (iequals(name, to_string(v))) return v;
  }
  return std::nullopt;
}

/// `cfg` when its validate() passes, else ConfigError naming the field.
template <typename T>
const T& validated(const T& cfg) {
  if (const auto error = cfg.validate()) throw ConfigError(error->message());
  return cfg;
}

/// `name` through its vocabulary's parser, or ConfigError naming `what`.
template <typename T>
[[nodiscard]] T parse_name(std::string_view what, std::string_view name,
                           std::optional<T> (*parse)(std::string_view)) {
  if (const auto v = parse(name)) return *v;
  throw ConfigError("unknown " + std::string(what) + ": " + std::string(name));
}

class Config {
 public:
  Config() = default;

  /// Parse "key = value" lines. Later keys override earlier ones.
  /// Throws ConfigError on malformed lines.
  static Config from_string(std::string_view text);
  static Config from_file(const std::string& path);

  void set(std::string key, std::string value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed getters with defaults. Throw ConfigError when a present value
  /// does not parse as the requested type (get_int<T>: does not fit T).
  [[nodiscard]] std::string get_string(const std::string& key, std::string def) const;
  template <std::integral T = std::int64_t>
  [[nodiscard]] T get_int(const std::string& key, std::type_identity_t<T> def) const {
    const auto v = get(key);
    if (!v) return def;
    if (const auto parsed = parse_int<T>(*v)) return *parsed;
    throw ConfigError("config key '" + key + "': '" + *v + "' is not an integer in range");
  }
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace mcm
