#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mhla::core {

/// The one JSON module: the emission side (escaper, number formats and the
/// JsonText builder every document in the library is written with) and the
/// reader (Json).  Nothing here consults a locale, so a host that installs
/// a grouping or comma-decimal global locale changes no emitted byte — the
/// config document is hashed into every design-cache key.

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(std::string_view text);

/// `%.{precision}g` in the classic locale (std::to_chars).
std::string format_general(double value, int precision);

/// 15 significant digits for display values; max_digits10 (17) for
/// round-trip-exact storage (parsing `json_number_exact(v)` gives back v's
/// bits — the config and cache round-trip contracts rely on it).
std::string json_number(double value);
std::string json_number_exact(double value);

inline const char* json_bool(bool value) { return value ? "true" : "false"; }

/// Two spaces per indent level.
inline std::string json_pad(int indent) {
  return std::string(static_cast<std::size_t>(indent) * 2, ' ');
}

/// Append-only text builder behind every emitter.  Integers go through
/// std::to_chars, and `<<` is deleted for bools and floating point, so
/// every double picks json_number/json_number_exact (every bool
/// json_bool) explicitly instead of converting silently.
class JsonText {
 public:
  JsonText& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  JsonText& operator<<(const std::string& text) { return *this << std::string_view(text); }
  JsonText& operator<<(const char* text) { return *this << std::string_view(text); }
  JsonText& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  JsonText& operator<<(T value) {
    char buffer[24];
    out_.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
    return *this;
  }
  JsonText& operator<<(bool) = delete;
  template <std::floating_point T>
  JsonText& operator<<(T) = delete;

  /// The text in a string sized to it: callers keep documents (a load
  /// generator holds thousands of request lines), so the builder's growth
  /// slack must not outlive it.
  std::string take() {
    out_.shrink_to_fit();
    return std::move(out_);
  }

 private:
  std::string out_;
};

/// A parsed JSON document.  Minimal by design: the library only needs to
/// read back the documents it emits itself, so this favors clear errors
/// over speed.
///
/// Accessors are checked: asking an object for a string, or indexing a
/// missing key, throws std::invalid_argument naming the offending path —
/// the error the config loader surfaces to the user unchanged.
class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Parse a complete document (one value plus trailing whitespace).
  /// Throws std::invalid_argument with a line:column position on any
  /// syntax error, trailing garbage, or duplicate object key.
  static Json parse(const std::string& text);

  Json() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  /// Checked scalar accessors.
  bool boolean() const;
  double number() const;
  std::int64_t integer() const;  ///< number(), checked to be integral and in range
  const std::string& string() const;
  const Array& array() const;
  const Object& object() const;

  /// Object member lookup: `find` returns nullptr when absent, `at` throws.
  const Json* find(const std::string& key) const;
  const Json& at(const std::string& key) const;

  /// Re-serialize this value as one compact JSON document.  Numbers are
  /// emitted with max_digits10 (integral values without a fraction), so
  /// `parse(dump())` reproduces every double bit for bit — which is what
  /// lets `serve::to_json` put a config document on one request line
  /// without loss.
  std::string dump() const;

 private:
  void dump_to(JsonText& out) const;

  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace mhla::core
