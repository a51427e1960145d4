#include "traffic/trace_replay.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/json_value.hpp"
#include "sim/parse.hpp"

namespace tcn::traffic {
namespace {

[[noreturn]] void bad_line(const std::string& path, std::size_t line,
                           const std::string& why) {
  throw std::invalid_argument("trace " + path + ":" + std::to_string(line) +
                              ": " + why);
}

/// A host address or service class: a 32-bit field, never truncated.
std::uint32_t as_u32(const obs::JsonValue& v, const char* key) {
  const std::uint64_t n = v.as_u64();
  if (n > UINT32_MAX) {
    throw std::invalid_argument(std::string(key) + " " + std::to_string(n) +
                                " exceeds 2^32 - 1");
  }
  return static_cast<std::uint32_t>(n);
}

}  // namespace

std::vector<ReplayFlow> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("trace replay: cannot open '" + path + "'");
  }
  std::vector<ReplayFlow> flows;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    obs::JsonValue rec;
    try {
      rec = obs::JsonValue::parse(line);
    } catch (const std::exception& e) {
      bad_line(path, lineno, e.what());
    }
    if (!rec.is_object()) bad_line(path, lineno, "expected a JSON object");
    ReplayFlow f;
    try {
      const double t_s = rec.at("t_s").as_double();
      if (t_s < 0) throw std::invalid_argument("t_s must be >= 0");
      f.at = sim::to_time("t_s", t_s, sim::kSecond);
      f.src = as_u32(rec.at("src"), "src");
      f.dst = as_u32(rec.at("dst"), "dst");
      f.size = rec.at("size").as_u64();
      if (const obs::JsonValue* s = rec.find("service")) {
        f.service = as_u32(*s, "service");
      }
      if (const obs::JsonValue* d = rec.find("dscp")) {
        const std::int64_t dscp = d->as_i64();
        if (dscp < 0 || dscp > 63) {
          throw std::invalid_argument("dscp out of range");
        }
        f.dscp = static_cast<int>(dscp);
      }
    } catch (const std::exception& e) {
      bad_line(path, lineno, e.what());
    }
    if (f.size == 0) bad_line(path, lineno, "size must be > 0");
    if (f.src == f.dst) bad_line(path, lineno, "src and dst must differ");
    flows.push_back(f);
  }
  std::stable_sort(flows.begin(), flows.end(),
                   [](const ReplayFlow& a, const ReplayFlow& b) {
                     return a.at < b.at;
                   });
  return flows;
}

}  // namespace tcn::traffic
