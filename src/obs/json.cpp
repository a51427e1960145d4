#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tcn::obs {

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values inside the exactly-representable range print as
  // integers ("2000", not "2e+03").
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  // Shortest %g precision that parses back to the same bits. %g is
  // locale-independent for the C locale the binaries run under; precision
  // 17 always round-trips, so the loop terminates.
  for (int prec = 1; prec <= 17; ++prec) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return "null";  // unreachable
}

void append_escaped_json(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    if (!out_.empty()) {
      throw std::logic_error("JsonWriter: multiple top-level values");
    }
    return;
  }
  if (stack_.back() == Scope::kObject) {
    if (!key_pending_) {
      throw std::logic_error("JsonWriter: value inside object without key");
    }
    key_pending_ = false;
    return;  // key() already emitted the separator and indentation
  }
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  newline_indent();
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Scope::kObject || key_pending_) {
    throw std::logic_error("JsonWriter: key() outside object");
  }
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  newline_indent();
  out_ += '"';
  append_escaped_json(out_, k);
  out_ += indent_ > 0 ? "\": " : "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Scope::kObject || key_pending_) {
    throw std::logic_error("JsonWriter: unbalanced end_object");
  }
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) newline_indent();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Scope::kArray) {
    throw std::logic_error("JsonWriter: unbalanced end_array");
  }
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) newline_indent();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  append_escaped_json(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  out_ += format_double(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

const std::string& JsonWriter::str() const {
  if (!stack_.empty()) {
    throw std::logic_error("JsonWriter: document still open");
  }
  return out_;
}

}  // namespace tcn::obs
