// Minimal ordered JSON document model for the observability layer: metric
// snapshots, run reports, and trace metadata all serialize through this one
// writer so escaping and number formatting stay consistent. Insertion order
// is preserved (reports diff cleanly) and output is deterministic.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mcm::obs {

/// Escape `s` as the body of a JSON string (no surrounding quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

class JsonValue;

/// Parse one JSON document (the subset this writer emits: null, bool,
/// integer, double, string with the escapes json_escape produces, array,
/// object). Returns nullopt and fills `error` (when given) on malformed
/// input or trailing garbage.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text,
                                                  std::string* error = nullptr);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  JsonValue() : v_(std::monostate{}) {}
  JsonValue(bool b) : v_(b) {}                                      // NOLINT
  JsonValue(std::int64_t i) : v_(i) {}                              // NOLINT
  JsonValue(std::uint64_t u) : v_(u) {}                             // NOLINT
  JsonValue(int i) : v_(static_cast<std::int64_t>(i)) {}            // NOLINT
  JsonValue(unsigned i) : v_(static_cast<std::uint64_t>(i)) {}      // NOLINT
  JsonValue(double d) : v_(d) {}                                    // NOLINT
  JsonValue(std::string s) : v_(std::move(s)) {}                    // NOLINT
  JsonValue(std::string_view s) : v_(std::string(s)) {}             // NOLINT
  JsonValue(const char* s) : v_(std::string(s)) {}                  // NOLINT

  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.v_ = Object{};
    return v;
  }
  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.v_ = Array{};
    return v;
  }

  [[nodiscard]] Type type() const { return static_cast<Type>(v_.index()); }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }

  /// Object access: get-or-create the member `key` (converts a null value
  /// into an object on first use so `root["a"]["b"] = 1` just works).
  JsonValue& operator[](std::string_view key);

  /// Object lookup without creation; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Array append; returns a reference to the stored element.
  JsonValue& push(JsonValue v);

  [[nodiscard]] std::size_t size() const;

  /// Array element access; nullptr when out of range or not an array.
  [[nodiscard]] const JsonValue* at(std::size_t i) const;

  // Value accessors for parsed documents; numeric kinds convert freely,
  // anything else returns the fallback.
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const;
  [[nodiscard]] std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  [[nodiscard]] double as_double(double fallback = 0.0) const;
  [[nodiscard]] std::string as_string(std::string fallback = {}) const;

  /// Checked narrowing read for integer fields: the number as T (a double
  /// truncates, as in as_int), or nullopt where a cast would wrap.
  template <std::integral T>
  [[nodiscard]] std::optional<T> as_integer() const {
    const auto narrow = [](auto v) {
      return std::in_range<T>(v) ? std::optional<T>(static_cast<T>(v)) : std::nullopt;
    };
    switch (type()) {
      case Type::kInt: return narrow(std::get<std::int64_t>(v_));
      case Type::kUint: return narrow(std::get<std::uint64_t>(v_));
      case Type::kDouble: {
        const double d = std::trunc(std::get<double>(v_));
        if (!(d >= -0x1p63 && d < 0x1p64)) return std::nullopt;  // or NaN
        return d < 0 ? narrow(static_cast<std::int64_t>(d))
                     : narrow(static_cast<std::uint64_t>(d));
      }
      default: return std::nullopt;
    }
  }

  /// Member `key` through as_integer into `out` (absent keeps `out`); one
  /// that does not fit is named in `bad`, unless `bad` names an earlier one.
  template <std::integral T>
  void read_integer(std::string_view key, T& out, std::string& bad) const {
    const JsonValue* v = find(key);
    if (v == nullptr) return;
    if (const auto checked = v->as_integer<T>()) {
      out = *checked;
    } else if (bad.empty()) {
      bad = key;
    }
  }

  /// Serialize. indent <= 0 emits the compact single-line form.
  void dump(std::ostream& out, int indent = 2) const;
  [[nodiscard]] std::string dump_string(int indent = 2) const;

 private:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  void dump_impl(std::ostream& out, int indent, int depth) const;

  std::variant<std::monostate, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      v_;
};

}  // namespace mcm::obs
