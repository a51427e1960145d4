// Minimal JSON parser: the read-side counterpart of obs::JsonWriter.
//
// The repo still carries no third-party JSON dependency; this parser exists
// for exactly one consumer -- the sweep runner's tcn-journal-1 resume path
// -- and covers what the writer can emit, nothing more (no comments, no
// trailing commas, no \u surrogate pairs beyond the BMP escapes the writer
// produces).
//
// Round-trip contract (what journaled resume relies on):
//
//  * integers that fit std::uint64_t / std::int64_t parse exactly (never
//    through a double), so packet counts and seeds survive unchanged;
//  * doubles parse with strtod, whose result is bit-exact for the
//    shortest-round-trip strings format_double emits;
//  * object key order is preserved (vector of pairs, no hashing).
//
// Re-serializing a parsed document with the same writer code therefore
// reproduces the original bytes. What the writer cannot emit is an error:
// nesting past 64 levels and numbers beyond double range (it writes
// non-finite values as null).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcn::obs {

/// Thrown on malformed input, with a byte offset in the message.
class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what)
      : std::runtime_error(what) {}
};

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kUInt,    ///< non-negative integer with no fraction/exponent
    kInt,     ///< negative integer with no fraction/exponent
    kDouble,  ///< everything else numeric
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;

  /// Parse a complete document; trailing non-whitespace is an error.
  static JsonValue parse(std::string_view text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kUInt || type_ == Type::kInt ||
           type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors throw JsonParseError on a type mismatch, so a journal
  /// with the wrong shape fails with a message instead of UB.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] std::int64_t as_i64() const;
  /// Any numeric type widened to double (kUInt/kInt converted).
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member by key, or nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Object member that must exist.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  // Indirect so JsonValue stays movable without recursive layout issues.
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;

  friend class JsonParser;
};

}  // namespace tcn::obs
