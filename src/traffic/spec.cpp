#include "traffic/spec.hpp"

#include <stdexcept>
#include <string_view>

#include "sim/parse.hpp"

namespace tcn::traffic {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::string where(const std::string& clause) {
  return "--traffic clause '" + clause + "'";
}

[[noreturn]] void bad(const std::string& clause, const std::string& why) {
  throw std::invalid_argument(where(clause) + ": " + why);
}

int to_dscp(const std::string& clause, const std::string& field) {
  if (field == "-") return -1;
  const std::uint64_t dscp = sim::parse_u64(where(clause) + " dscp", field);
  if (dscp > 63) bad(clause, "dscp must be '-' or an integer in [0, 63]");
  return static_cast<int>(dscp);
}

// poisson:<name>:<workload>:<share>[:<dscp>]
// mmpp:<name>:<workload>:<share>[:<dscp>[:<burst>[:<duty>[:<dwell_ms>]]]]
TenantSpec parse_tenant(const std::string& clause,
                        const std::vector<std::string>& f, bool mmpp) {
  const std::size_t max_fields = mmpp ? 8 : 5;
  if (f.size() < 4 || f.size() > max_fields) {
    bad(clause, mmpp ? "want mmpp:<name>:<workload>:<share>"
                       "[:<dscp>[:<burst>[:<duty>[:<dwell_ms>]]]]"
                     : "want poisson:<name>:<workload>:<share>[:<dscp>]");
  }
  TenantSpec t;
  t.arrival = mmpp ? TenantSpec::Arrival::kMmpp : TenantSpec::Arrival::kPoisson;
  t.name = f[1];
  if (t.name.empty()) bad(clause, "tenant name must be non-empty");
  try {
    t.workload = workload::from_name(f[2]);
  } catch (const std::invalid_argument& e) {
    bad(clause, e.what());
  }
  t.share = sim::parse_double(where(clause), f[3]);
  if (t.share <= 0) bad(clause, "share must be > 0");
  if (f.size() > 4) t.dscp = to_dscp(clause, f[4]);
  if (mmpp) {
    if (f.size() > 5) t.burst_ratio = sim::parse_double(where(clause), f[5]);
    if (f.size() > 6) t.duty = sim::parse_double(where(clause), f[6]);
    if (f.size() > 7) t.dwell_ms = sim::parse_double(where(clause), f[7]);
    if (t.burst_ratio < 1) bad(clause, "burst ratio must be >= 1");
    if (t.duty <= 0 || t.duty >= 1) bad(clause, "duty must be in (0, 1)");
    if (t.burst_ratio * t.duty > 1) {
      bad(clause,
          "burst_ratio * duty must be <= 1 (the idle-state rate "
          "rate*(1-burst*duty)/(1-duty) would go negative)");
    }
    if (t.dwell_ms <= 0) bad(clause, "dwell_ms must be > 0");
    // The MMPP draws its dwell times as sim::Time.
    sim::to_time(where(clause) + " dwell_ms", t.dwell_ms, sim::kMillisecond);
  }
  return t;
}

DiurnalSpec parse_diurnal(const std::string& clause,
                          const std::vector<std::string>& f) {
  if (f.size() != 4) {
    bad(clause, "want diurnal:<period_s>:<min_factor>:<peak_factor>");
  }
  DiurnalSpec d;
  d.period_s = sim::parse_double(where(clause), f[1]);
  d.min_factor = sim::parse_double(where(clause), f[2]);
  d.peak_factor = sim::parse_double(where(clause), f[3]);
  if (d.period_s <= 0) bad(clause, "period_s must be > 0");
  sim::to_time(where(clause) + " period_s", d.period_s, sim::kSecond);
  if (d.min_factor <= 0) bad(clause, "min_factor must be > 0");
  if (d.peak_factor < d.min_factor) {
    bad(clause, "peak_factor must be >= min_factor");
  }
  return d;
}

}  // namespace

TrafficSpec parse_traffic_spec(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("--traffic: empty spec (use --traffic-grid "
                                "cell 'none' for the closed-loop baseline)");
  }
  TrafficSpec out;
  for (const std::string& clause : split(spec, ';')) {
    if (clause.empty()) continue;  // tolerate trailing ';'
    const auto f = split(clause, ':');
    const std::string& kind = f[0];
    if (kind == "poisson" || kind == "mmpp") {
      out.tenants.push_back(parse_tenant(clause, f, kind == "mmpp"));
    } else if (kind == "diurnal") {
      if (out.diurnal.enabled()) bad(clause, "at most one diurnal clause");
      out.diurnal = parse_diurnal(clause, f);
    } else if (kind == "replay") {
      if (!out.replay_path.empty()) bad(clause, "at most one replay clause");
      // Everything after "replay:" is the path verbatim (paths may contain
      // ':' on exotic filesystems, and need no further field splitting).
      if (clause.size() <= 7) bad(clause, "want replay:<path>");
      out.replay_path = clause.substr(7);
    } else {
      bad(clause, "unknown source kind '" + kind +
                      "' (want poisson|mmpp|diurnal|replay)");
    }
  }
  if (!out.enabled()) {
    throw std::invalid_argument(
        "--traffic '" + spec + "': no flow source (diurnal alone schedules "
        "nothing; add a poisson/mmpp tenant or a replay clause)");
  }
  return out;
}

std::vector<std::pair<std::string, TrafficSpec>> parse_traffic_grid(
    const std::string& grid) {
  if (grid.empty()) {
    throw std::invalid_argument("--traffic-grid: empty grid");
  }
  std::vector<std::pair<std::string, TrafficSpec>> cells;
  for (const std::string& cell : split(grid, '|')) {
    if (cell.empty() || cell == "none") {
      cells.emplace_back("none", TrafficSpec{});
    } else {
      cells.emplace_back(cell, parse_traffic_spec(cell));
    }
  }
  return cells;
}

}  // namespace tcn::traffic
