#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"
#include "obs/json_value.hpp"

namespace tcn::e2e {
namespace {

constexpr Better kLower = Better::kLower;
constexpr Better kHigher = Better::kHigher;

}  // namespace

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"ns_per_event", "ns", kLower, 0.20},
      {"peak_rss_mb", "MB", kLower, 0.10},
      {"setup_s", "s", kLower, 0.25},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count", kLower, 0},
      {"sim.events_per_s", "1/s", kHigher, 0},
      {"sim.sim_s_per_wall_s", "ratio", kHigher, 0},
      {"sim.peak_pending", "count", kLower, 0},
      {"sim.calendar_resizes", "count", kLower, 0},
      {"sim.self_s", "s", kLower, 0},
      {"net.switch_rx", "count", kLower, 0},
      {"net.self_s", "s", kLower, 0},
      {"net.ns_per_rx", "ns", kLower, 0},
      {"net.pool_fresh", "count", kLower, 0},
      {"net.pool_reused", "count", kHigher, 0},
      {"net.switch_drops", "count", kLower, 0},
      {"net.switch_marks", "count", kLower, 0},
      {"sched.calls", "count", kLower, 0},
      {"sched.self_s", "s", kLower, 0},
      {"sched.ns_per_call", "ns", kLower, 0},
      {"sched.drops", "count", kLower, 0},
      {"aqm.calls", "count", kLower, 0},
      {"aqm.self_s", "s", kLower, 0},
      {"aqm.ns_per_call", "ns", kLower, 0},
      {"aqm.mark_ratio", "ratio", kLower, 0},
      {"transport.flow_starts", "count", kHigher, 0},
      {"transport.start_s", "s", kLower, 0},
      {"transport.connections", "count", kLower, 0},
      {"transport.timeouts", "count", kLower, 0},
      {"traffic.arrivals", "count", kHigher, 0},
      {"traffic.active_peak", "count", kLower, 0},
      {"traffic.slab_fresh", "count", kLower, 0},
      {"traffic.slab_reused", "count", kHigher, 0},
      {"stats.calls", "count", kHigher, 0},
      {"stats.self_s", "s", kLower, 0},
      {"topo.build_s", "s", kLower, 0},
      {"obs.overhead_frac", "ratio", kLower, 0},
      {"obs.series_ticks", "count", kLower, 0},
      {"obs.instruments", "count", kLower, 0},
      {"trace.overhead_frac", "ratio", kLower, 0},
      {"trace.agrees", "bool", kHigher, 0},
      {"trace.clock_ns", "ns", kLower, 0},
  };
  return defs;
}

const MetricDef* find_metric(std::string_view name) {
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *table) {
      if (d.name == name) return &d;
    }
  }
  return nullptr;
}

const Metric* WorkloadResult::find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void WorkloadResult::add(std::string_view name, double value,
                         std::vector<double> samples) {
  const MetricDef* def = find_metric(name);
  if (def == nullptr) {
    throw std::logic_error("unknown metric " + std::string(name));
  }
  metrics.push_back({std::string(name), std::string(def->unit), value,
                     std::move(samples)});
}

void WorkloadResult::merge(const WorkloadResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
  reference_s.insert(reference_s.end(), other.reference_s.begin(),
                     other.reference_s.end());
}

std::string result_line(const WorkloadResult& r) {
  obs::JsonWriter w(0);
  w.begin_object();
  w.key("correct").value(r.correct());
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : r.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

void write_metric(obs::JsonWriter& w, const Metric& m) {
  w.key(m.name).begin_object();
  w.key("value").value(m.value);
  w.key("unit").value(m.unit);
  if (!m.samples.empty()) {
    w.key("samples").begin_array();
    for (const double s : m.samples) w.value(s);
    w.end_array();
  }
  w.end_object();
}

}  // namespace

std::string results_json(const std::vector<WorkloadResult>& results) {
  obs::JsonWriter w(2);
  w.begin_object();
  w.key("schema").value("tcn-e2e-1");
  w.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler").value(compiler_id());
  w.key("workloads").begin_array();
  for (const WorkloadResult& r : results) {
    w.begin_object();
    w.key("name").value(r.workload);
    w.key("seed").value(r.seed);
    w.key("attempted").value(r.attempted);
    w.key("failed").value(r.failed);
    w.key("fail_frac")
        .value(r.attempted == 0 ? 1.0
                                : static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted));
    w.key("correct").value(r.correct());
    w.key("errors").begin_array();
    for (const std::string& e : r.errors) w.value(e);
    w.end_array();
    w.key("metrics").begin_object();
    for (const Metric& m : r.metrics) write_metric(w, m);
    w.end_object();
    w.key("reference_s").begin_array();
    for (const double t : r.reference_s) w.value(t);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

std::vector<WorkloadResult> read_results(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const obs::JsonValue doc = obs::JsonValue::parse(text.str());
    if (doc.at("schema").as_string() != "tcn-e2e-1") {
      throw std::runtime_error("schema is not tcn-e2e-1");
    }
    std::vector<WorkloadResult> out;
    for (const obs::JsonValue& rec : doc.at("workloads").as_array()) {
      WorkloadResult r;
      r.workload = rec.at("name").as_string();
      r.seed = rec.at("seed").as_u64();
      r.attempted = rec.at("attempted").as_u64();
      r.failed = rec.at("failed").as_u64();
      for (const obs::JsonValue& e : rec.at("errors").as_array()) {
        r.errors.push_back(e.as_string());
      }
      for (const auto& [name, m] : rec.at("metrics").as_object()) {
        Metric metric{name, m.at("unit").as_string(),
                      m.at("value").as_double(), {}};
        if (const obs::JsonValue* s = m.find("samples")) {
          for (const obs::JsonValue& v : s->as_array()) {
            metric.samples.push_back(v.as_double());
          }
        }
        r.metrics.push_back(std::move(metric));
      }
      for (const obs::JsonValue& t : rec.at("reference_s").as_array()) {
        r.reference_s.push_back(t.as_double());
      }
      out.push_back(std::move(r));
    }
    return out;
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  // CPython's statistics.quantiles, method="exclusive", n=4.
  const std::int64_t m = n + 1;
  double q[3];
  for (std::int64_t i = 1; i <= 3; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kImproved: return "improved";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

Comparison compare(const MetricDef& def, const std::vector<double>& parent,
                   const std::vector<double>& change) {
  Comparison c;
  c.pairs = std::min(parent.size(), change.size());
  if (parent.empty() || change.empty()) {
    c.reason = "no runs on one side";
    return c;
  }
  c.parent = quartiles(parent);
  c.change = quartiles(change);
  // gain(a, b) > 0 when b reads better than a.
  const double sign = def.better == Better::kLower ? 1.0 : -1.0;
  const auto gain = [sign](double a, double b) { return sign * (a - b); };
  for (std::size_t i = 0; i < c.pairs; ++i) {
    const double g = gain(parent[i], change[i]);
    if (g > 0) ++c.wins;
    if (g < 0) ++c.losses;
  }
  const double base = std::abs(c.parent.median);
  c.median_diff =
      base == 0.0 ? 0.0 : (c.change.median - c.parent.median) / base;
  const double parent_iqr = c.parent.q3 - c.parent.q1;
  const double change_iqr = c.change.q3 - c.change.q1;
  c.spread = base == 0.0 ? 0.0 : std::max(parent_iqr, change_iqr) / base;

  const auto [pmin, pmax] = std::minmax_element(parent.begin(), parent.end());
  const auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
  const bool all_better = def.better == Better::kLower ? *cmax < *pmin
                                                       : *cmin > *pmax;
  const double gap = gain(c.parent.median, c.change.median);
  const double worse = base == 0.0 ? 0.0 : -gap / base;

  if (c.pairs < kMinPairs) {
    c.reason = std::to_string(c.pairs) + " pairs, need " +
               std::to_string(kMinPairs);
    return c;
  }
  if (c.spread > def.bound && !all_better) {
    c.reason = "spread wider than the bound";
    return c;
  }
  if (10 * c.wins >= 9 * c.pairs && gap > parent_iqr) {
    c.verdict = Verdict::kImproved;
    c.reason = "wins 9/10 of pairs, gap beyond the parent's IQR";
  } else if (worse > def.bound) {
    c.verdict = Verdict::kRegressed;
    c.reason = "median worse by more than the bound";
  } else {
    c.verdict = Verdict::kUnchanged;
    c.reason = "within the bound";
  }
  return c;
}

}  // namespace tcn::e2e
