#include "obs/json_value.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace tcn::obs {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw JsonParseError("JSON parse error at byte " + std::to_string(pos) +
                       ": " + what);
}

}  // namespace

/// Recursive-descent parser over a string_view; positions are byte offsets
/// into the original text for error messages.
class JsonParser {
 public:
  /// Deepest array/object nesting accepted. The writers nest at most 7
  /// levels (a journal line's histogram bucket pair); the limit bounds the
  /// recursion, so a line of 100,000 '[' is an error, not a stack overflow.
  static constexpr std::size_t kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth));
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail(pos_, "bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail(pos_, "bad literal");
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return JsonValue();
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    v.object_ = std::make_shared<JsonValue::Object>();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_->emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail(pos_, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    v.array_ = std::make_shared<JsonValue::Array>();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_->push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(pos_ - 1, "bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (the writer only ever escapes
          // control characters, but decode the general case).
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
          break;
        }
        default:
          fail(pos_ - 1, "bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      fail(start, "bad number");
    }
    // NUL-terminated copy for strto*; numbers are short.
    const std::string tok(text_.substr(start, pos_ - start));
    JsonValue v;
    if (integral) {
      errno = 0;
      char* end = nullptr;
      if (tok[0] == '-') {
        const long long i = std::strtoll(tok.c_str(), &end, 10);
        if (errno == 0 && end == tok.c_str() + tok.size()) {
          v.type_ = JsonValue::Type::kInt;
          v.int_ = i;
          v.double_ = static_cast<double>(i);
          return v;
        }
      } else {
        const unsigned long long u = std::strtoull(tok.c_str(), &end, 10);
        if (errno == 0 && end == tok.c_str() + tok.size()) {
          v.type_ = JsonValue::Type::kUInt;
          v.uint_ = u;
          v.double_ = static_cast<double>(u);
          return v;
        }
      }
      // Integer overflowed 64 bits: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail(start, "bad number");
    // The writer emits non-finite values as null, never as a number.
    if (std::isinf(d)) fail(start, "number out of double range");
    v.type_ = JsonValue::Type::kDouble;
    v.double_ = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw JsonParseError("not a bool");
  return bool_;
}

std::uint64_t JsonValue::as_u64() const {
  if (type_ == Type::kUInt) return uint_;
  if (type_ == Type::kInt && int_ >= 0) {
    return static_cast<std::uint64_t>(int_);
  }
  throw JsonParseError("not a non-negative integer");
}

std::int64_t JsonValue::as_i64() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kUInt) {
    if (uint_ > static_cast<std::uint64_t>(INT64_MAX)) {
      throw JsonParseError("integer out of int64 range");
    }
    return static_cast<std::int64_t>(uint_);
  }
  throw JsonParseError("not an integer");
}

double JsonValue::as_double() const {
  if (!is_number()) throw JsonParseError("not a number");
  return double_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw JsonParseError("not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) throw JsonParseError("not an array");
  return *array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) throw JsonParseError("not an object");
  return *object_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : *object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw JsonParseError("missing key '" + std::string(key) + "'");
  }
  return *v;
}

}  // namespace tcn::obs
