#include "sim/parse.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace tcn::sim {

std::uint64_t parse_u64(std::string_view what, std::string_view value) {
  std::uint64_t n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(what) +
                                ": expected a non-negative integer, got '" +
                                std::string(value) + "'");
  }
  return n;
}

double parse_double(std::string_view what, std::string_view value) {
  double d = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, d);
  if (ec != std::errc() || ptr != end || !std::isfinite(d)) {
    throw std::invalid_argument(std::string(what) +
                                ": expected a finite number, got '" +
                                std::string(value) + "'");
  }
  return d;
}

Time to_time(std::string_view what, double amount, Time unit) {
  const double ns = amount * static_cast<double>(unit);
  constexpr auto kLimit = static_cast<double>(kTimeMax);
  if (!(ns > -kLimit && ns < kLimit)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", amount);
    throw std::invalid_argument(std::string(what) + ": '" + buf +
                                "' is out of range");
  }
  return static_cast<Time>(ns);
}

std::vector<std::string> list_elements(std::string_view what,
                                       std::string_view value) {
  if (value.empty()) {
    throw std::invalid_argument(std::string(what) + ": empty list");
  }
  std::vector<std::string> out;
  for (std::size_t begin = 0; begin <= value.size();) {
    const std::size_t end = std::min(value.find(',', begin), value.size());
    if (end == begin) {
      throw std::invalid_argument(std::string(what) + ": empty element in '" +
                                  std::string(value) + "'");
    }
    out.emplace_back(value.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

}  // namespace tcn::sim
