// Tests for the open-loop traffic subsystem (src/traffic): the --traffic
// grammar and --traffic-grid cells, the arrival processes (Poisson, MMPP
// determinism, diurnal modulation), trace replay, flow-uid scoping, the
// engine wired through core::run_fct_experiment (tenant mixes, DSCP
// overrides, overload tripping the pending-event guard as a classified
// oom-guard failure), and the sweep/journal determinism contract extended
// to the traffic axis.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "runner/journal.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "sim/random.hpp"
#include "topo/network.hpp"
#include "traffic/arrival.hpp"
#include "traffic/flow_slab.hpp"
#include "traffic/spec.hpp"
#include "traffic/trace_replay.hpp"

namespace tcn {
namespace {

// ------------------------------------------------------------- grammar ----

TEST(TrafficSpec, ParsesPoissonTenant) {
  const auto spec = traffic::parse_traffic_spec("poisson:web:websearch:0.7");
  ASSERT_EQ(spec.tenants.size(), 1u);
  EXPECT_TRUE(spec.enabled());
  const auto& t = spec.tenants[0];
  EXPECT_EQ(t.name, "web");
  EXPECT_EQ(t.workload, workload::Kind::kWebSearch);
  EXPECT_EQ(t.share, 0.7);
  EXPECT_EQ(t.dscp, -1);
  EXPECT_EQ(t.arrival, traffic::TenantSpec::Arrival::kPoisson);
  // The canonical hyphenated workload name parses too.
  EXPECT_EQ(traffic::parse_traffic_spec("poisson:w:web-search:1")
                .tenants[0]
                .workload,
            workload::Kind::kWebSearch);
}

TEST(TrafficSpec, ParsesMmppTenantWithAllFields) {
  const auto spec =
      traffic::parse_traffic_spec("mmpp:batch:datamining:0.3:12:6:0.1:25");
  ASSERT_EQ(spec.tenants.size(), 1u);
  const auto& t = spec.tenants[0];
  EXPECT_EQ(t.name, "batch");
  EXPECT_EQ(t.workload, workload::Kind::kDataMining);
  EXPECT_EQ(t.share, 0.3);
  EXPECT_EQ(t.dscp, 12);
  EXPECT_EQ(t.arrival, traffic::TenantSpec::Arrival::kMmpp);
  EXPECT_EQ(t.burst_ratio, 6.0);
  EXPECT_EQ(t.duty, 0.1);
  EXPECT_EQ(t.dwell_ms, 25.0);
  // '-' keeps the scheme-default DSCP; trailing fields default.
  const auto d = traffic::parse_traffic_spec("mmpp:b:cache:1:-");
  EXPECT_EQ(d.tenants[0].dscp, -1);
  EXPECT_EQ(d.tenants[0].burst_ratio, 4.0);
}

TEST(TrafficSpec, ParsesDiurnalAndReplayAndMultipleClauses) {
  const auto spec = traffic::parse_traffic_spec(
      "poisson:a:cache:0.5;mmpp:b:hadoop:0.5;diurnal:60:0.5:1.5;"
      "replay:/tmp/trace.jsonl");
  EXPECT_EQ(spec.tenants.size(), 2u);
  EXPECT_TRUE(spec.diurnal.enabled());
  EXPECT_EQ(spec.diurnal.period_s, 60.0);
  EXPECT_EQ(spec.diurnal.min_factor, 0.5);
  EXPECT_EQ(spec.diurnal.peak_factor, 1.5);
  EXPECT_EQ(spec.replay_path, "/tmp/trace.jsonl");
  // A replay-only spec is a valid flow source.
  EXPECT_TRUE(traffic::parse_traffic_spec("replay:t.jsonl").enabled());
}

TEST(TrafficSpec, RejectsBadInput) {
  EXPECT_THROW(traffic::parse_traffic_spec(""), std::invalid_argument);
  EXPECT_THROW(traffic::parse_traffic_spec("bogus:x"), std::invalid_argument);
  EXPECT_THROW(traffic::parse_traffic_spec("poisson:w:nosuch:1"),
               std::invalid_argument);
  EXPECT_THROW(traffic::parse_traffic_spec("poisson:w:cache:0"),
               std::invalid_argument);  // share must be > 0
  EXPECT_THROW(traffic::parse_traffic_spec("poisson::cache:1"),
               std::invalid_argument);  // empty name
  EXPECT_THROW(traffic::parse_traffic_spec("poisson:w:cache:1:64"),
               std::invalid_argument);  // dscp out of range
  EXPECT_THROW(traffic::parse_traffic_spec("mmpp:w:cache:1:-:0.5"),
               std::invalid_argument);  // burst < 1
  EXPECT_THROW(traffic::parse_traffic_spec("mmpp:w:cache:1:-:4:1.5"),
               std::invalid_argument);  // duty out of (0,1)
  EXPECT_THROW(traffic::parse_traffic_spec("mmpp:w:cache:1:-:8:0.5"),
               std::invalid_argument);  // burst*duty > 1: idle rate < 0
  EXPECT_THROW(traffic::parse_traffic_spec("diurnal:60:0.5:1.5"),
               std::invalid_argument);  // diurnal alone: no flow source
  EXPECT_THROW(traffic::parse_traffic_spec(
                   "poisson:a:cache:1;diurnal:1:1:2;diurnal:2:1:2"),
               std::invalid_argument);  // duplicate diurnal
  EXPECT_THROW(
      traffic::parse_traffic_spec("replay:a.jsonl;replay:b.jsonl"),
      std::invalid_argument);  // duplicate replay
}

// Numbers are checked and the clause is named: an infinite dwell or share
// was accepted, and a NaN share failed only deep in PoissonArrivals.
TEST(TrafficSpec, RejectsNonFiniteNumbersNamingTheClause) {
  for (const char* spec :
       {"mmpp:b:websearch:1:-:2:0.25:inf", "poisson:web:websearch:nan",
        "poisson:web:websearch:inf", "mmpp:b:websearch:1:-:2:0.25:1e300",
        "poisson:w:cache:1:1e300", "poisson:w:cache:1:3.5",
        "diurnal:1e300:0.5:1.5"}) {
    try {
      traffic::parse_traffic_spec(std::string(spec) + ";poisson:ok:cache:1");
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--traffic clause '" +
                                           std::string(spec) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TrafficSpec, GridCellsAndNoneBaseline) {
  const auto cells =
      traffic::parse_traffic_grid("none|poisson:web:websearch:1");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].first, "none");
  EXPECT_FALSE(cells[0].second.enabled());
  EXPECT_EQ(cells[1].first, "poisson:web:websearch:1");
  EXPECT_TRUE(cells[1].second.enabled());
  // An empty cell is the closed-loop baseline, same as the literal "none".
  EXPECT_FALSE(traffic::parse_traffic_grid("|poisson:w:cache:1")[0]
                   .second.enabled());
  EXPECT_THROW(traffic::parse_traffic_grid(""), std::invalid_argument);
  EXPECT_THROW(traffic::parse_traffic_grid("none|bogus:x"),
               std::invalid_argument);
}

// ------------------------------------------------------------ arrivals ----

TEST(Diurnal, RaisedCosineHitsMinAndPeak) {
  traffic::DiurnalSchedule d;
  d.period = sim::from_seconds(10.0);
  d.min_factor = 0.5;
  d.peak_factor = 1.5;
  EXPECT_NEAR(d.factor(0), 0.5, 1e-12);
  EXPECT_NEAR(d.factor(sim::from_seconds(5.0)), 1.5, 1e-12);
  EXPECT_NEAR(d.factor(sim::from_seconds(2.5)), 1.0, 1e-12);  // midpoint
  EXPECT_NEAR(d.factor(sim::from_seconds(10.0)), 0.5, 1e-12);  // periodic
  // Disabled schedule is the identity.
  traffic::DiurnalSchedule off;
  EXPECT_EQ(off.factor(123456789), 1.0);
}

TEST(Poisson, MeanGapMatchesRateAndScale) {
  traffic::PoissonArrivals arr(1000.0);  // 1000 flows/s = 1ms mean gap
  sim::Rng rng(42);
  double sum_ns = 0.0;
  sim::Time now = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const sim::Time next = arr.next(now, 1.0, rng);
    ASSERT_GT(next, now);  // strictly increasing
    sum_ns += static_cast<double>(next - now);
    now = next;
  }
  EXPECT_NEAR(sum_ns / n, 1e6, 5e4);  // 1 ms +- 5%
  // Doubling the scale halves the mean gap.
  sim::Rng rng2(42);
  double sum2 = 0.0;
  now = 0;
  for (int i = 0; i < n; ++i) {
    const sim::Time next = arr.next(now, 2.0, rng2);
    sum2 += static_cast<double>(next - now);
    now = next;
  }
  EXPECT_NEAR(sum2 / n, 5e5, 2.5e4);
}

TEST(Mmpp, DeterministicUnderFixedSeed) {
  traffic::MmppArrivals::Params p;
  p.flows_per_sec = 5000.0;
  p.burst_ratio = 4.0;
  p.duty = 0.25;
  p.dwell_burst_s = 0.005;
  const auto draw = [&](std::uint64_t seed) {
    traffic::MmppArrivals arr(p);
    sim::Rng rng(seed);
    std::vector<sim::Time> times;
    sim::Time now = 0;
    for (int i = 0; i < 5000; ++i) {
      now = arr.next(now, 1.0, rng);
      times.push_back(now);
    }
    return std::make_pair(times, arr.transitions());
  };
  const auto a = draw(7);
  const auto b = draw(7);
  EXPECT_EQ(a.first, b.first);  // identical arrival sequence
  EXPECT_EQ(a.second, b.second);  // identical state-transition count
  EXPECT_GT(a.second, 0u);  // the chain actually modulates
  const auto c = draw(8);
  EXPECT_NE(a.first, c.first);  // a different seed draws differently
}

TEST(Mmpp, LongRunRateMatchesAverage) {
  traffic::MmppArrivals::Params p;
  p.flows_per_sec = 2000.0;
  p.burst_ratio = 4.0;
  p.duty = 0.25;
  p.dwell_burst_s = 0.002;
  traffic::MmppArrivals arr(p);
  sim::Rng rng(3);
  sim::Time now = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) now = arr.next(now, 1.0, rng);
  const double rate = n / sim::to_seconds(now);
  EXPECT_NEAR(rate, 2000.0, 150.0);  // long-run average preserved
}

// ------------------------------------------------------------ flow uids ----

TEST(FlowUid, ScopeRestartsAndNests) {
  traffic::FlowUidScope outer;
  EXPECT_EQ(traffic::FlowUidScope::current(), &outer);
  EXPECT_EQ(outer.next(), 1u);
  EXPECT_EQ(outer.next(), 2u);
  {
    traffic::FlowUidScope inner;
    EXPECT_EQ(traffic::FlowUidScope::current(), &inner);
    EXPECT_EQ(inner.next(), 1u);  // inner shadows outer
  }
  EXPECT_EQ(traffic::FlowUidScope::current(), &outer);
  EXPECT_EQ(outer.next(), 3u);  // outer restored
  EXPECT_EQ(outer.issued(), 3u);
}

// --------------------------------------------------------- trace replay ----

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(TraceReplay, LoadsAndSortsJsonl) {
  const std::string path = temp_path("trace_ok.jsonl");
  write_file(path,
             "{\"t_s\":0.002,\"src\":2,\"dst\":0,\"size\":4000}\n"
             "\n"
             "{\"t_s\":0.001,\"src\":1,\"dst\":0,\"size\":2000,"
             "\"service\":3,\"dscp\":9}\n");
  const auto flows = traffic::load_trace(path);
  ASSERT_EQ(flows.size(), 2u);
  // Stable-sorted by arrival time.
  EXPECT_EQ(flows[0].at, sim::from_seconds(0.001));
  EXPECT_EQ(flows[0].src, 1u);
  EXPECT_EQ(flows[0].size, 2000u);
  EXPECT_EQ(flows[0].service, 3u);
  EXPECT_EQ(flows[0].dscp, 9);
  EXPECT_EQ(flows[1].src, 2u);
  EXPECT_EQ(flows[1].service, 0u);  // defaults
  EXPECT_EQ(flows[1].dscp, -1);
  std::remove(path.c_str());
}

TEST(TraceReplay, ErrorsNameThePathAndLine) {
  const std::string path = temp_path("trace_bad.jsonl");
  write_file(path,
             "{\"t_s\":0,\"src\":0,\"dst\":0,\"size\":100}\n");  // src == dst
  try {
    traffic::load_trace(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":1"), std::string::npos) << what;
  }
  write_file(path, "{\"t_s\":0,\"src\":0,\"dst\":1}\n");  // missing size
  EXPECT_THROW(traffic::load_trace(path), std::invalid_argument);
  // A missing file is an I/O error, not a malformed-spec error.
  EXPECT_THROW(traffic::load_trace(temp_path("no_such_trace.jsonl")),
               std::runtime_error);
  std::remove(path.c_str());
}

/// The message load_trace raises for a one-line trace `line`, or "".
std::string replay_error(const std::string& line) {
  const std::string path = temp_path("trace_range.jsonl");
  write_file(path, "{\"t_s\":0,\"src\":1,\"dst\":0,\"size\":100}\n" + line +
                       "\n");
  std::string what;
  try {
    (void)traffic::load_trace(path);
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

TEST(TraceReplay, RejectsValuesOutsideTheirRange) {
  const std::string at = "trace " + temp_path("trace_range.jsonl") + ":2: ";
  // A time past the simulator's clock range is rejected, not converted.
  for (const char* t : {"1e300", "1e10", "1e999"}) {
    const std::string what = replay_error(
        std::string("{\"t_s\":") + t + ",\"src\":1,\"dst\":0,\"size\":1}");
    EXPECT_EQ(what.rfind(at, 0), 0u) << t << ": " << what;
  }
  // 32-bit fields are rejected past 2^32 - 1, not truncated.
  for (const char* field :
       {R"({"t_s":0,"src":4294967297,"dst":0,"size":1})",
        R"({"t_s":0,"src":1,"dst":4294967296,"size":1})",
        R"({"t_s":0,"src":1,"dst":0,"size":1,"service":4294967296})"}) {
    const std::string what = replay_error(field);
    EXPECT_EQ(what.rfind(at, 0), 0u) << field << ": " << what;
    EXPECT_NE(what.find("2^32"), std::string::npos) << what;
  }
  EXPECT_EQ(replay_error(std::string(100'000, '[')).rfind(at, 0), 0u);
  EXPECT_EQ(replay_error(R"({"t_s":-1,"src":1,"dst":0,"size":1})").rfind(at, 0),
            0u);
  // The edges of the ranges still load.
  EXPECT_EQ(replay_error(R"({"t_s":9e9,"src":4294967295,"dst":0,"size":1})"),
            "");
}

// ----------------------------------------------------- engine end-to-end ----

core::FctExperiment open_loop_cfg(const std::string& traffic) {
  core::FctExperiment cfg;
  cfg.scheme = core::Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.sched.kind = core::SchedKind::kDwrr;
  cfg.load = 0.5;
  cfg.num_flows = 300;
  cfg.num_services = 2;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 5;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.seed = 7;
  cfg.traffic = traffic::parse_traffic_spec(traffic);
  return cfg;
}

TEST(TrafficEngine, OpenLoopRunCompletesAndRecyclesSlots) {
  const auto cfg = open_loop_cfg("poisson:web:cache:1");
  const auto report = core::run_fct_experiment(cfg);
  EXPECT_TRUE(report.traffic_open_loop);
  EXPECT_EQ(report.traffic_arrivals, 300u);
  EXPECT_EQ(report.flows_started, 300u);
  EXPECT_EQ(report.flows_completed, 300u);
  EXPECT_EQ(report.summary.count, 300u);
  EXPECT_EQ(report.traffic_replayed, 0u);
  EXPECT_GE(report.traffic_active_peak, 1u);
  // The slab working set is the peak concurrency, not the flow count.
  EXPECT_EQ(report.slab_fresh, report.traffic_active_peak);
  EXPECT_EQ(report.slab_fresh + report.slab_reused, 300u);
  EXPECT_EQ(report.slab_recycled, 300u);
  // Every offered byte was achieved (all flows completed).
  EXPECT_EQ(report.traffic_offered_bytes, report.traffic_achieved_bytes);
  EXPECT_GT(report.traffic_offered_bytes, 0u);
}

TEST(TrafficEngine, TwoTenantsWithDscpAndDiurnal) {
  auto cfg = open_loop_cfg(
      "poisson:web:cache:0.7:3;mmpp:batch:cache:0.3:9;diurnal:1:0.5:1.5");
  cfg.collect_metrics = true;
  const auto report = core::run_fct_experiment(cfg);
  EXPECT_EQ(report.flows_completed, report.traffic_arrivals);
  // Exactly the cap: the chain that has an arrival pending when the other
  // reaches num_flows must not land an extra flow.
  EXPECT_EQ(report.traffic_arrivals, 300u);
  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& c : report.metrics.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  const auto web = counter("traffic/arrivals.web");
  const auto batch = counter("traffic/arrivals.batch");
  EXPECT_GT(web, 0u);
  EXPECT_GT(batch, 0u);
  EXPECT_EQ(web + batch, counter("traffic/arrivals"));
  // 70/30 share split, within generous sampling noise.
  const double frac =
      static_cast<double>(web) / static_cast<double>(web + batch);
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.9);
  EXPECT_EQ(counter("traffic/completed"), report.flows_completed);
  EXPECT_EQ(counter("traffic/slab_reuses"), report.slab_reused);
}

TEST(TrafficEngine, ReplaysTraceAlongsideTenants) {
  const std::string path = temp_path("trace_engine.jsonl");
  std::string text;
  for (int i = 0; i < 10; ++i) {
    text += "{\"t_s\":" + std::to_string(i * 0.001) +
            ",\"src\":" + std::to_string(1 + i % 4) +
            ",\"dst\":0,\"size\":3000}\n";
  }
  write_file(path, text);
  const auto cfg = open_loop_cfg("poisson:web:cache:1;replay:" + path);
  const auto report = core::run_fct_experiment(cfg);
  EXPECT_EQ(report.traffic_replayed, 10u);
  // num_flows caps tenant arrivals only; the trace rides on top.
  EXPECT_EQ(report.traffic_arrivals, 310u);
  EXPECT_EQ(report.flows_completed, 310u);
  std::remove(path.c_str());

  // A trace referencing hosts outside the topology fails before the run.
  write_file(path, "{\"t_s\":0,\"src\":99,\"dst\":0,\"size\":100}\n");
  auto bad = open_loop_cfg("replay:" + path);
  EXPECT_THROW(core::run_fct_experiment(bad), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(TrafficEngine, OverloadTripsPendingGuardAsOomFailure) {
  // Load >> 1: arrivals outpace completions, the active population grows
  // without bound, and the run must die as a *classified* oom-guard
  // failure (satellite: overload guard), not an actual OOM.
  auto cfg = open_loop_cfg("poisson:web:cache:1");
  cfg.load = 50.0;
  cfg.num_flows = 0;  // unlimited
  cfg.pending_event_budget = 3000;
  try {
    core::run_fct_experiment(cfg);
    FAIL() << "expected ExperimentError";
  } catch (const core::ExperimentError& e) {
    EXPECT_EQ(e.kind(), core::RunErrorKind::kOomGuard);
    EXPECT_NE(std::string(e.what()).find("pending"), std::string::npos);
  }
}

TEST(TrafficEngine, ClosedLoopGeneratorsStillRejectOverload) {
  // The load > 1 allowance is open-loop only.
  auto cfg = open_loop_cfg("poisson:web:cache:1");
  cfg.traffic = traffic::TrafficSpec{};  // back to closed loop
  cfg.load = 1.5;
  EXPECT_THROW(core::run_fct_experiment(cfg), std::invalid_argument);
}

// --------------------------------------------------- sweep + determinism ----

runner::SweepSpec traffic_sweep_spec() {
  runner::SweepSpec spec;
  spec.name = "traffic-unit";
  spec.base = open_loop_cfg("poisson:web:cache:1");
  spec.base.traffic = traffic::TrafficSpec{};  // axis supplies the cells
  spec.base.num_flows = 150;
  spec.schemes = {{"TCN", core::Scheme::kTcn}};
  spec.loads = {0.4, 0.6};
  spec.traffics = traffic::parse_traffic_grid(
      "none|poisson:web:cache:1|mmpp:batch:cache:1:-:4:0.25:5");
  return spec;
}

TEST(TrafficSweep, GridIsInnermostAxis) {
  const auto jobs = traffic_sweep_spec().expand();
  ASSERT_EQ(jobs.size(), 2u * 3u);
  EXPECT_EQ(jobs[0].traffic_label, "none");
  EXPECT_FALSE(jobs[0].cfg.traffic.enabled());
  EXPECT_EQ(jobs[1].traffic_label, "poisson:web:cache:1");
  EXPECT_TRUE(jobs[1].cfg.traffic.enabled());
  EXPECT_EQ(jobs[2].traffic_label, "mmpp:batch:cache:1:-:4:0.25:5");
  // Adjacent traffic cells share every other grid coordinate.
  EXPECT_EQ(jobs[1].cfg.load, jobs[0].cfg.load);
  EXPECT_EQ(jobs[3].cfg.load, 0.6);
}

TEST(TrafficSweep, ByteIdenticalAcrossJobCounts) {
  const auto spec = traffic_sweep_spec();
  runner::SweepOptions serial;
  serial.jobs = 1;
  const auto a = runner::run_sweep(spec, serial);
  runner::SweepOptions parallel;
  parallel.jobs = 4;
  const auto b = runner::run_sweep(spec, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Open-loop state (flow uids, slab slots, tenant RNGs) is per-run scoped,
  // so threads must not leak into results -- bit-exact, like the closed loop.
  EXPECT_EQ(runner::to_json(a, "traffic-unit", /*include_timing=*/false),
            runner::to_json(b, "traffic-unit", /*include_timing=*/false));
  // The open-loop cells carry their telemetry; the "none" cells stay clean.
  EXPECT_FALSE(a.runs[0].report.traffic_open_loop);
  EXPECT_TRUE(a.runs[1].report.traffic_open_loop);
  EXPECT_EQ(a.runs[1].report.slab_recycled, a.runs[1].report.traffic_arrivals);
}

TEST(TrafficSweep, JournalRoundTripsTrafficCells) {
  const std::string path = temp_path("traffic_journal.jsonl");
  const auto spec = traffic_sweep_spec();
  runner::SweepOptions opt;
  opt.jobs = 2;
  opt.journal_out = path;
  const auto ref = runner::run_sweep(spec, opt);
  ASSERT_TRUE(ref.ok());
  const auto ref_json =
      runner::to_json(ref, "traffic-unit", /*include_timing=*/false);

  // Resume from the complete journal: every record restores (traffic label
  // and counters included) and the aggregate is byte-identical.
  auto data = runner::load_journal(path);
  EXPECT_EQ(data.entries.size(), ref.runs.size());
  runner::SweepOptions resume;
  resume.jobs = 4;
  resume.journal_out = path;
  resume.resume = &data;
  const auto res = runner::run_sweep(spec, resume);
  EXPECT_EQ(res.restored, ref.runs.size());
  EXPECT_EQ(runner::to_json(res, "traffic-unit", /*include_timing=*/false),
            ref_json);
  for (const auto& r : res.runs) {
    EXPECT_EQ(r.job.traffic_label.empty(), false);
    if (r.report.traffic_open_loop) {
      EXPECT_GT(r.report.traffic_arrivals, 0u);
      EXPECT_EQ(r.report.slab_recycled, r.report.traffic_arrivals);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcn
