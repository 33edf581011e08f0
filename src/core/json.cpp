#include "core/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace mhla::core {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_general(double value, int precision) {
  char buffer[32];
  return std::string(buffer, std::to_chars(buffer, buffer + sizeof buffer, value,
                                           std::chars_format::general, precision)
                                 .ptr);
}

std::string json_number(double value) { return format_general(value, 15); }

std::string json_number_exact(double value) { return format_general(value, 17); }

namespace {

std::string kind_name(Json::Kind kind) {
  switch (kind) {
    case Json::Kind::Null: return "null";
    case Json::Kind::Bool: return "bool";
    case Json::Kind::Number: return "number";
    case Json::Kind::String: return "string";
    case Json::Kind::Array: return "array";
    case Json::Kind::Object: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* wanted, Json::Kind got) {
  throw std::invalid_argument(std::string("JSON: expected ") + wanted + ", got " +
                              kind_name(got));
}

}  // namespace

bool Json::boolean() const {
  if (kind_ != Kind::Bool) kind_error("bool", kind_);
  return bool_;
}

double Json::number() const {
  if (kind_ != Kind::Number) kind_error("number", kind_);
  return number_;
}

std::int64_t Json::integer() const {
  double value = number();
  if (std::nearbyint(value) != value ||
      value < -9007199254740992.0 || value > 9007199254740992.0) {
    throw std::invalid_argument("JSON: number " + std::to_string(value) +
                                " is not an exactly-representable integer");
  }
  return static_cast<std::int64_t>(value);
}

const std::string& Json::string() const {
  if (kind_ != Kind::String) kind_error("string", kind_);
  return string_;
}

const Json::Array& Json::array() const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  return array_;
}

const Json::Object& Json::object() const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  return object_;
}

const Json* Json::find(const std::string& key) const {
  const Object& members = object();
  auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

const Json& Json::at(const std::string& key) const {
  const Json* member = find(key);
  if (!member) throw std::invalid_argument("JSON: missing key \"" + key + "\"");
  return *member;
}

std::string Json::dump() const {
  JsonText out;
  dump_to(out);
  return out.take();
}

void Json::dump_to(JsonText& out) const {
  switch (kind_) {
    case Kind::Null:
      out << "null";
      break;
    case Kind::Bool:
      out << json_bool(bool_);
      break;
    case Kind::Number: {
      // Integral values print without a fraction (they parse back exactly);
      // everything else, -0 included, goes through max_digits10 for a
      // bit-exact round trip.
      const bool negative_zero = number_ == 0.0 && std::signbit(number_);
      if (!negative_zero && std::nearbyint(number_) == number_ &&
          number_ >= -9007199254740992.0 && number_ <= 9007199254740992.0) {
        out << static_cast<std::int64_t>(number_);
      } else {
        out << json_number_exact(number_);
      }
      break;
    }
    case Kind::String:
      out << '"' << json_escape(string_) << '"';
      break;
    case Kind::Array: {
      out << '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out << ", ";
        array_[i].dump_to(out);
      }
      out << ']';
      break;
    }
    case Kind::Object: {
      out << '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out << ", ";
        first = false;
        out << '"' << json_escape(key) << "\": ";
        value.dump_to(out);
      }
      out << '}';
      break;
    }
  }
}

/// Recursive-descent parser over the raw text.  Tracks the byte offset and
/// reports errors as line:column.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw std::invalid_argument("JSON parse error at " + std::to_string(line) + ":" +
                                std::to_string(column) + ": " + what);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_keyword(const char* keyword) {
    std::size_t n = std::char_traits<char>::length(keyword);
    if (text_.compare(pos_, n, keyword) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    if (depth_ > kMaxDepth) fail("nesting deeper than 256 levels");
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return make_string(parse_string());
      case 't':
        if (consume_keyword("true")) return make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_keyword("false")) return make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_keyword("null")) return Json{};
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    ++depth_;
    Json value;
    value.kind_ = Json::Kind::Object;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return value;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected a quoted object key");
      std::string key = parse_string();
      if (value.object_.count(key)) fail("duplicate object key \"" + key + "\"");
      skip_whitespace();
      expect(':');
      value.object_.emplace(std::move(key), parse_value());
      skip_whitespace();
      char c = take();
      if (c == '}') {
        --depth_;
        return value;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    ++depth_;
    Json value;
    value.kind_ = Json::Kind::Array;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return value;
    }
    while (true) {
      value.array_.push_back(parse_value());
      skip_whitespace();
      char c = take();
      if (c == ']') {
        --depth_;
        return value;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
  }

  std::string parse_unicode_escape() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<unsigned>(c - 'A') + 10;
      } else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs are rejected:
    // nothing the library emits ever needs them).
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escapes are not supported");
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("digits required after '.'");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("digits required in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    Json value;
    value.kind_ = Json::Kind::Number;
    // std::from_chars: locale-independent, unlike strtod (a host that sets
    // a comma-decimal LC_NUMERIC must not change what a config means).
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    auto [ptr, ec] = std::from_chars(first, last, value.number_);
    if (ec != std::errc() || ptr != last) fail("invalid number");
    return value;
  }

  static Json make_string(std::string s) {
    Json value;
    value.kind_ = Json::Kind::String;
    value.string_ = std::move(s);
    return value;
  }

  static Json make_bool(bool b) {
    Json value;
    value.kind_ = Json::Kind::Bool;
    value.bool_ = b;
    return value;
  }

  /// Parser and Json destructor both recurse per nesting level; the cap
  /// turns a hostile deeply-nested document into the documented
  /// std::invalid_argument instead of a stack overflow.
  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

Json Json::parse(const std::string& text) { return JsonParser(text).parse_document(); }

}  // namespace mhla::core
