// Metric definitions, result records and their JSON form, and the verdict
// rules of `e2e --compare`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tcn::e2e {

enum class Better : std::uint8_t { kLower, kHigher };

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  Better better;
  /// End-to-end metrics: the share of the parent's median by which the
  /// metric may worsen before a change counts as a regression. Per-layer
  /// metrics have none (0).
  double bound;
};

/// Reported with tracing off: what a user of the simulator sees.
const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by the traced pass: one entry per layer count or time.
const std::vector<MetricDef>& per_layer_metrics();
/// Either table; nullptr for an unknown name.
const MetricDef* find_metric(std::string_view name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< per-repetition values behind a median
};

/// Everything one `e2e --workload NAME` invocation measured.
struct WorkloadResult {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t attempted = 0;  ///< simulations run
  std::uint64_t failed = 0;     ///< of those, the ones that failed
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Host-speed reference times (measure.hpp) taken during the run, so raw
  /// times can be recovered from the scaled ones.
  std::vector<double> reference_s;

  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
  [[nodiscard]] const Metric* find(std::string_view name) const;
  /// Append a metric from the tables above (throws on an unknown name).
  void add(std::string_view name, double value,
           std::vector<double> samples = {});
  /// Fold another invocation on the same workload into this one.
  void merge(const WorkloadResult& other);
};

/// The compiler this binary was built with, as recorded in result files.
std::string compiler_id();

/// The one-line JSON object the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_line(const WorkloadResult& r);

/// A tcn-e2e-1 document: run identity (nproc, compiler) plus one record per
/// workload.
std::string results_json(const std::vector<WorkloadResult>& results);
/// The workload records of a tcn-e2e-1 document. Throws with the path in
/// the message on unreadable or malformed input.
std::vector<WorkloadResult> read_results(const std::string& path);

double median(std::vector<double> v);

/// First quartile, median and third quartile, computed like Python's
/// statistics.quantiles(v, n=4) (the "exclusive" method).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

enum class Verdict : std::uint8_t {
  kImproved,
  kUnchanged,
  kRegressed,
  kUnresolved
};
std::string_view verdict_name(Verdict v);

/// Pairs below this leave every verdict unresolved.
inline constexpr std::size_t kMinPairs = 10;

struct Comparison {
  Quartiles parent;
  Quartiles change;
  std::size_t pairs = 0;
  std::size_t wins = 0;    ///< pairs where the change reads better
  std::size_t losses = 0;  ///< pairs where it reads worse; ties are neither
  /// (change median - parent median) / parent median, signed.
  double median_diff = 0.0;
  /// Wider of the two sides' interquartile ranges, as a share of the
  /// parent's median.
  double spread = 0.0;
  Verdict verdict = Verdict::kUnresolved;
  std::string reason;
};

/// Judge one end-to-end metric on one workload. parent[i] and change[i] are
/// the i-th alternating pair. Rules, in order:
///  - fewer than kMinPairs pairs: unresolved;
///  - spread wider than the bound, unless every change run reads better
///    than every parent run: unresolved;
///  - the change wins at least 9/10 of the pairs and its median beats the
///    parent's by more than the parent's interquartile range: improved;
///  - its median is worse than the parent's by more than the bound:
///    regressed;
///  - otherwise unchanged.
Comparison compare(const MetricDef& def, const std::vector<double>& parent,
                   const std::vector<double>& change);

}  // namespace tcn::e2e
