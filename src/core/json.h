#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mhla::core {

/// A parsed JSON document.  Minimal by design: the library only needs to
/// read back the configuration documents it emits itself (core/json_report
/// stays the emission side), so this favors clear errors over speed.
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
  void dump_to(std::string& out) const;

  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace mhla::core
