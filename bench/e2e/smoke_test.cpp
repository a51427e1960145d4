// e2e_smoke: every workload at a tiny size. The traced rebuild reproduces
// the untraced run, repetitions agree, every metric BENCHMARK.json names is
// reported with its unit, and the --compare verdict rules hold.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "obs/json_value.hpp"
#include "report.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace tcn::e2e {
namespace {

obs::JsonValue benchmark_json() {
  std::ifstream in(BENCHMARK_JSON);
  std::ostringstream text;
  text << in.rdbuf();
  return obs::JsonValue::parse(text.str());
}

TEST(E2eSmoke, RepetitionsAndTracedRunAgree) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    const Input input(w.name, 7, Size::kTiny);
    const RunOutput a = input.run(Mode::kMeasure, nullptr);
    const RunOutput b = input.run(Mode::kMeasure, nullptr);
    EXPECT_GT(a.stats.events, 0u);
    EXPECT_GT(a.stats.flows_completed, 0u);
    EXPECT_EQ(first_difference(a.stats, b.stats), "");

    Tracer tracer;
    const RunOutput t = input.run(Mode::kMeasure, &tracer);
    EXPECT_EQ(first_difference(a.stats, t.stats), "");
    const LayerTimes lt = tracer.totals();
    EXPECT_EQ(lt.unexpected_nesting, 0u);
    for (std::size_t s = 0; s < kNumSpans; ++s) {
      EXPECT_GT(lt.calls[s], 0u) << "span kind " << s;
    }
    EXPECT_EQ(lt.calls[static_cast<std::size_t>(Span::kStats)],
              t.stats.flows_completed);
    EXPECT_GT(t.connections, 0u);
  }
}

TEST(E2eSmoke, DifferentSeedsGiveDifferentInputs) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    // Every incast query fans out to all 32 identical servers, so the seed
    // only relabels them and no outcome changes.
    if (w.name == "incast_fifo_tcn") continue;
    const RunOutput a = Input(w.name, 1, Size::kTiny).run(Mode::kMeasure,
                                                          nullptr);
    const RunOutput b = Input(w.name, 2, Size::kTiny).run(Mode::kMeasure,
                                                          nullptr);
    EXPECT_NE(first_difference(a.stats, b.stats), "");
  }
}

TEST(E2eSmoke, ObsIsOnOnlyInTheObsWorkload) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    const bool obs = w.name == "star_dwrr_tcn_obs";
    const Input input(w.name, 3, Size::kTiny);
    const RunOutput plain = input.run(Mode::kMeasure, nullptr);
    const RunOutput toggled = input.run(Mode::kObsToggled, nullptr);
    EXPECT_EQ(plain.stats.instruments > 0, obs);
    EXPECT_EQ(toggled.stats.instruments > 0, !obs);
    EXPECT_EQ(plain.stats.series_ticks > 0, obs);
    // Observation changes no simulated outcome apart from its own ticks.
    EXPECT_EQ(plain.stats.flows_completed, toggled.stats.flows_completed);
    EXPECT_EQ(plain.stats.switch_marks, toggled.stats.switch_marks);
  }
}

TEST(E2eSmoke, SetupOnlyRunsNoTraffic) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    const RunOutput s =
        Input(w.name, 1, Size::kFull).run(Mode::kSetupOnly, nullptr);
    EXPECT_EQ(s.stats.flows_completed, 0u);
  }
}

TEST(E2eSmoke, BenchmarkJsonMatchesTheBinary) {
  const obs::JsonValue doc = benchmark_json();
  const auto& listed = doc.at("workloads").as_array();
  ASSERT_EQ(listed.size(), workloads().size());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(listed[i].at("name").as_string(), workloads()[i].name);
    EXPECT_EQ(listed[i].at("why").as_string(), workloads()[i].why);
  }
  const auto check_table = [](const obs::JsonValue& arr,
                              const std::vector<MetricDef>& defs) {
    ASSERT_EQ(arr.as_array().size(), defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const obs::JsonValue& m = arr.as_array()[i];
      EXPECT_EQ(m.at("name").as_string(), defs[i].name);
      EXPECT_EQ(m.at("unit").as_string(), defs[i].unit);
      EXPECT_EQ(m.at("better").as_string(),
                defs[i].better == Better::kLower ? "lower" : "higher");
      if (const obs::JsonValue* bound = m.find("bound")) {
        EXPECT_DOUBLE_EQ(bound->as_double(), defs[i].bound);
      }
    }
  };
  check_table(doc.at("end_to_end"), end_to_end_metrics());
  check_table(doc.at("per_layer"), per_layer_metrics());
}

TEST(E2eSmoke, EveryNamedMetricIsReportedWithItsUnit) {
  const obs::JsonValue doc = benchmark_json();
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    for (const bool trace : {false, true}) {
      Options opt;
      opt.seed = 5;
      opt.size = Size::kTiny;
      opt.min_reps = 2;
      opt.setup_reps = 3;
      opt.trace = trace;
      const WorkloadResult r = run_workload(w, opt);
      EXPECT_TRUE(r.correct()) << (r.errors.empty() ? "" : r.errors[0]);
      const obs::JsonValue& set = doc.at(trace ? "per_layer" : "end_to_end");
      EXPECT_EQ(r.metrics.size(), set.as_array().size());
      for (const obs::JsonValue& m : set.as_array()) {
        const Metric* got = r.find(m.at("name").as_string());
        ASSERT_NE(got, nullptr) << m.at("name").as_string();
        EXPECT_EQ(got->unit, m.at("unit").as_string());
      }
      if (trace) {
        EXPECT_EQ(r.find("trace.agrees")->value, 1.0);
      } else {
        EXPECT_GT(r.find("setup_s")->value, 0.0);
        EXPECT_EQ(r.find("ns_per_event")->samples.size(), 2u);
      }
      // The last line the benchmark prints parses and names every metric.
      const obs::JsonValue line = obs::JsonValue::parse(result_line(r));
      EXPECT_TRUE(line.at("correct").as_bool());
      EXPECT_EQ(line.at("metrics").as_object().size(), r.metrics.size());
    }
  }
}

TEST(E2eCompare, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const Quartiles r = quartiles({4, 1, 2});
  EXPECT_DOUBLE_EQ(r.q1, 1.0);
  EXPECT_DOUBLE_EQ(r.median, 2.0);
  EXPECT_DOUBLE_EQ(r.q3, 4.0);
}

std::vector<double> around(double centre, std::size_t n, double step = 0.1) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(centre + step * (static_cast<double>(i % 5) - 2.0));
  }
  return v;
}

TEST(E2eCompare, VerdictRules) {
  const MetricDef lower{"ns_per_event", "ns", Better::kLower, 0.10};
  const MetricDef higher{"rate", "1/s", Better::kHigher, 0.10};

  EXPECT_EQ(compare(lower, around(100, 10), around(80, 10)).verdict,
            Verdict::kImproved);
  EXPECT_EQ(compare(lower, around(100, 10), around(120, 10)).verdict,
            Verdict::kRegressed);
  EXPECT_EQ(compare(lower, around(100, 10), around(105, 10)).verdict,
            Verdict::kUnchanged);
  EXPECT_EQ(compare(higher, around(100, 10), around(120, 10)).verdict,
            Verdict::kImproved);
  EXPECT_EQ(compare(higher, around(100, 10), around(80, 10)).verdict,
            Verdict::kRegressed);

  // Fewer than ten pairs never resolves, however clear the gap.
  const Comparison few = compare(lower, around(100, 9), around(50, 9));
  EXPECT_EQ(few.verdict, Verdict::kUnresolved);
  EXPECT_EQ(few.pairs, 9u);

  // Spread wider than the bound: unresolved, unless every change run reads
  // better than every parent run.
  const std::vector<double> noisy = around(100, 10, 20.0);
  EXPECT_EQ(compare(lower, noisy, noisy).verdict, Verdict::kUnresolved);
  EXPECT_EQ(compare(lower, noisy, around(30, 10)).verdict,
            Verdict::kImproved);

  // Ties count for neither side: identical runs win nothing.
  const Comparison tie = compare(lower, around(100, 10), around(100, 10));
  EXPECT_EQ(tie.wins, 0u);
  EXPECT_EQ(tie.losses, 0u);
  EXPECT_EQ(tie.verdict, Verdict::kUnchanged);

  // Winning 8 of 10 pairs is not a gain even with a clear median gap.
  std::vector<double> parent = around(100, 10, 0.5);
  std::vector<double> change = around(90, 10, 0.5);
  change[0] = 100.8;
  change[1] = 100.8;
  EXPECT_EQ(compare(lower, parent, change).verdict, Verdict::kUnchanged);

  // A median gap inside the parent's interquartile range is not a gain.
  parent = {90, 95, 97, 99, 100, 100, 101, 103, 105, 110};
  change = {89, 94, 96, 98, 99, 99, 100, 102, 104, 109};
  const Comparison small = compare(lower, parent, change);
  EXPECT_EQ(small.wins, 10u);
  EXPECT_EQ(small.verdict, Verdict::kUnchanged);
}

}  // namespace
}  // namespace tcn::e2e
