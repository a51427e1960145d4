// Minimal hand-rolled JSON writer shared by the observability exporters and
// the runner's structured results layer.
//
// The repo deliberately carries no third-party JSON dependency; the writer
// covers exactly what BENCH_*.json and the tcn-metrics-1 / tcn-trace-1
// exports need -- objects, arrays, strings, numbers, booleans -- with two
// properties the determinism contract relies on:
//
//  * key order is the emission order (no hashing, no sorting surprises), and
//  * doubles are printed as the shortest decimal string that round-trips to
//    the same bit pattern, so bit-identical results serialize to
//    byte-identical files regardless of thread count or locale.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tcn::obs {

/// Shortest round-trip decimal rendering of `v` ("0.5", not
/// "0.50000000000000000"). Non-finite values render as "null" (JSON has no
/// inf/nan).
std::string format_double(double v);

/// Appends `s` to `out` with JSON string escaping per RFC 8259 (quotes,
/// backslash, control chars); allocates only when `out` must grow.
void append_escaped_json(std::string& out, std::string_view s);

/// Streaming writer with an explicit nesting stack; misuse (value without a
/// key inside an object, unbalanced end_*) throws std::logic_error so tests
/// catch schema bugs instead of emitting garbage.
class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 writes compact single-line JSON.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be directly inside an object and followed by
  /// exactly one value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// The finished document; throws if containers are still open.
  [[nodiscard]] const std::string& str() const;

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void before_value();
  void newline_indent();

  int indent_;
  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;  // parallel to stack_
  bool key_pending_ = false;
};

}  // namespace tcn::obs
