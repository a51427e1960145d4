// Golden-trace regression test: a tiny fixed-seed SP+DWRR scenario streamed
// through the tcn-trace-1 JSONL writer and the tcn-metrics-1 exporter (and,
// sampled, the tcn-series-1 dump), then byte-compared against checked-in
// goldens. Any change to event ordering, trace schema, metric naming,
// histogram bucketing, sampled queue depth or JSON rendering shows up here
// as a byte diff.
//
// Two whole FctExperiment runs are pinned the same way as tcn-bench-1
// records: a small leaf-spine (three-hop paths, 3-member ECMP groups, PIAS)
// and the Fig. 6 star. Those catch what a single port cannot -- an ECMP
// member change or a same-time pop-order change anywhere in a fabric moves
// an FCT, a counter or the event count.
//
// Regenerating after an INTENTIONAL format change (review the diff!):
//
//   TCN_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
//   git diff tests/golden/
//
// The scenario is pure fixed-point simulation (no wall clock, no RNG), so
// the goldens are identical on every platform and under every sanitizer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "aqm/tcn.hpp"
#include "core/schemes.hpp"
#include "figures.hpp"
#include "net/port.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tcn {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool update_golden() {
  const char* env = std::getenv("TCN_UPDATE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

void compare_or_update(const std::string& name, const std::string& actual) {
  const auto path = golden_path(name);
  if (update_golden()) {
    obs::write_text_file(path, actual);
    SUCCEED() << "regenerated " << path;
    return;
  }
  const auto expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden " << path
      << " -- regenerate with: TCN_UPDATE_GOLDEN=1 ./golden_trace_test";
  EXPECT_EQ(actual, expected)
      << "byte mismatch vs " << path
      << " -- if the format change is intentional, regenerate with "
         "TCN_UPDATE_GOLDEN=1 and review the diff";
}

/// The scenario: one 1G egress port, 3 queues under SP+DWRR (queue 0
/// strict, queues 1-2 DWRR), a 9KB shared buffer and a 20us TCN marker.
/// Bursts at t=0/5us/12us build enough backlog for dequeue-side marks and
/// one tail drop; a late lone packet at 400us dequeues unmarked. With an
/// enabled `series_cfg` a time-series sampler watches the port's queues too.
struct Run {
  std::string trace;
  std::string metrics;
  std::string series;  ///< tcn-series-1 dump; empty when not sampled
};

Run run_scenario_with(const core::SchedConfig& sched_cfg,
                      std::uint64_t buffer_bytes,
                      obs::TimeSeriesConfig series_cfg = {}) {
  net::PacketUidScope uid_scope;
  net::PacketPool pool;
  net::PacketPool::Scope pool_scope(pool);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry::Scope metrics_scope(registry);
  std::optional<obs::TimeSeries> series;
  std::optional<obs::TimeSeries::Scope> series_scope;
  if (series_cfg.enabled()) {
    series.emplace(series_cfg);
    series_scope.emplace(*series);
  }

  sim::Simulator sim;

  net::PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.num_queues = 3;
  cfg.buffer_bytes = buffer_bytes;

  net::Port port(sim, "sw0.p0", cfg, core::make_scheduler_factory(sched_cfg)(),
                 std::make_unique<aqm::TcnMarker>(20 * sim::kMicrosecond));
  test::CaptureNode sink;
  port.connect(&sink, 0);

  std::ostringstream out;
  obs::JsonlTraceWriter writer(out);
  port.set_observer(&writer);

  auto enq = [&](std::size_t queue, std::uint32_t size, std::uint64_t flow) {
    port.enqueue(test::make_test_packet(size, static_cast<std::uint8_t>(queue),
                                        flow),
                 queue);
  };
  // t=0: one packet per queue plus a short one in queue 1.
  enq(0, 1500, 1);
  enq(1, 1500, 2);
  enq(2, 1500, 3);
  enq(1, 700, 4);
  sim.schedule_at(5 * sim::kMicrosecond, [&] {
    enq(1, 1500, 2);
    enq(2, 1500, 3);
    enq(0, 300, 1);
  });
  sim.schedule_at(12 * sim::kMicrosecond, [&] {
    // Burst into queue 2: the last packet overflows the 9KB buffer.
    enq(2, 1500, 5);
    enq(2, 1500, 5);
    enq(2, 1500, 6);
    enq(2, 1500, 6);
  });
  sim.schedule_at(400 * sim::kMicrosecond, [&] { enq(0, 100, 7); });
  if (series) series->start(sim);
  sim.run();

  Run r;
  r.trace = out.str();
  r.metrics = obs::metrics_to_json(registry.snapshot()) + "\n";
  if (series) {
    std::ostringstream dump;
    obs::write_series_jsonl(dump, *series);
    r.series = dump.str();
  }
  return r;
}

Run run_scenario(obs::TimeSeriesConfig series_cfg = {}) {
  core::SchedConfig sched_cfg;
  sched_cfg.kind = core::SchedKind::kSpDwrr;
  sched_cfg.num_queues = 3;
  sched_cfg.num_sp = 1;
  return run_scenario_with(sched_cfg, 9'000, series_cfg);
}

/// The SP+DWRR scenario sampled every 2us into 8-point rings: ~200 ticks,
/// so every ring wraps, and the analyzer's moments see each tick's depth.
Run run_sampled_scenario() {
  obs::TimeSeriesConfig series_cfg;
  series_cfg.interval = 2 * sim::kMicrosecond;
  series_cfg.max_samples = 8;
  return run_scenario(series_cfg);
}

/// Same arrival script through the 4-level SP-PIFO with the STFQ rank
/// program: the approximation's push-up/push-down walk is pinned byte for
/// byte alongside the exact schedulers.
Run run_sp_pifo_scenario() {
  core::SchedConfig sched_cfg;
  sched_cfg.kind = core::SchedKind::kSpPifo;
  sched_cfg.num_queues = 3;
  sched_cfg.sp_pifo_levels = 4;
  return run_scenario_with(sched_cfg, 9'000);
}

/// Same arrival script through AIFO with a 4-sample window, k = 0 and a
/// 6KB buffer: tight enough that the quantile gate rejects mid-burst, so
/// the golden pins the "sdrop" trace event and the drops.sched counter.
Run run_aifo_scenario() {
  core::SchedConfig sched_cfg;
  sched_cfg.kind = core::SchedKind::kAifo;
  sched_cfg.num_queues = 3;
  sched_cfg.aifo_window = 4;
  sched_cfg.aifo_k = 0.0;
  return run_scenario_with(sched_cfg, 6'000);
}

/// One FctExperiment run as its tcn-bench-1 document with timing off. The
/// "sim_calendar_resizes" line is left out: it counts how the event queue
/// sized itself, which is not part of what the simulation computed.
std::string bench_record(const std::string& name, core::FctExperiment cfg) {
  cfg.scheme = core::Scheme::kTcn;
  runner::Job job;
  job.group = name;
  job.label = "TCN";
  job.cfg = std::move(cfg);
  const auto res = runner::run_jobs({std::move(job)});
  EXPECT_TRUE(res.ok()) << res.runs.at(0).error;
  std::string doc = runner::to_json(res, name, /*include_timing=*/false);
  // The key closes "counters": drop it with the comma before it.
  const std::size_t key = doc.find("\"sim_calendar_resizes\"");
  EXPECT_NE(key, std::string::npos);
  if (key != std::string::npos) {
    const std::size_t comma = doc.rfind(',', key);
    doc.erase(comma, doc.find('\n', key) - comma);
  }
  return doc;
}

/// Fig. 10's configuration (SP/DWRR + PIAS + TCN, 7 services, cold
/// connections) on a 4-leaf x 3-spine fabric with 4 hosts per leaf, so
/// every uplink ECMP group has 3 members. Every service draws web search
/// sizes: under Fig. 10's mix one data-mining flow carries most of the
/// bytes of 60 flows and no port ever marks.
std::string leafspine_record() {
  core::FctExperiment cfg = bench::fig10().base;
  cfg.leaf_spine.num_leaves = 4;
  cfg.leaf_spine.num_spines = 3;
  cfg.leaf_spine.hosts_per_leaf = 4;
  cfg.service_workloads = {workload::Kind::kWebSearch};
  cfg.load = 0.9;
  cfg.num_flows = 60;
  cfg.seed = 1;
  return bench_record("golden-leafspine", std::move(cfg));
}

/// Fig. 6's star: DWRR over 4 service queues + TCN, web search.
std::string star_record() {
  core::FctExperiment cfg = bench::fig06().base;
  cfg.load = 0.6;
  cfg.num_flows = 200;
  cfg.seed = 1;
  return bench_record("golden-star", std::move(cfg));
}

TEST(GoldenTrace, SpDwrrScenarioTraceBytes) {
  compare_or_update("trace_sp_dwrr.jsonl", run_scenario().trace);
}

TEST(GoldenTrace, SpDwrrScenarioMetricsBytes) {
  compare_or_update("metrics_sp_dwrr.json", run_scenario().metrics);
}

TEST(GoldenTrace, SpDwrrScenarioSeriesBytes) {
  compare_or_update("series_sp_dwrr.jsonl", run_sampled_scenario().series);
}

TEST(GoldenTrace, SpPifoScenarioTraceBytes) {
  compare_or_update("trace_sp_pifo.jsonl", run_sp_pifo_scenario().trace);
}

TEST(GoldenTrace, SpPifoScenarioMetricsBytes) {
  compare_or_update("metrics_sp_pifo.json", run_sp_pifo_scenario().metrics);
}

TEST(GoldenTrace, AifoScenarioTraceBytes) {
  compare_or_update("trace_aifo.jsonl", run_aifo_scenario().trace);
}

TEST(GoldenTrace, AifoScenarioMetricsBytes) {
  compare_or_update("metrics_aifo.json", run_aifo_scenario().metrics);
}

TEST(GoldenTrace, LeafSpineRunRecordBytes) {
  compare_or_update("run_leafspine_spdwrr_tcn.json", leafspine_record());
}

TEST(GoldenTrace, StarRunRecordBytes) {
  compare_or_update("run_star_dwrr_tcn.json", star_record());
}

TEST(GoldenTrace, ScenarioIsSelfConsistent) {
  // Independent of the goldens: the scenario drains, drops exactly one
  // packet, and marks at least one dequeue (so the golden actually
  // exercises every event type).
  const auto r = run_scenario();
  EXPECT_NE(r.trace.find("\"ev\":\"drop\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"mark\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"enq\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"deq\""), std::string::npos);
  // Two runs of the same scenario are byte-identical (determinism).
  const auto again = run_scenario();
  EXPECT_EQ(r.trace, again.trace);
  EXPECT_EQ(r.metrics, again.metrics);
  // Sampling observes without perturbing: same trace and metrics bytes.
  const auto sampled = run_sampled_scenario();
  EXPECT_EQ(r.trace, sampled.trace);
  EXPECT_EQ(r.metrics, sampled.metrics);
  EXPECT_FALSE(sampled.series.empty());
}

TEST(GoldenTrace, AifoScenarioIsSelfConsistent) {
  // The AIFO golden must actually exercise the admission gate: at least
  // one "sdrop" in the trace, a nonzero drops.sched counter, and the run
  // stays deterministic.
  const auto r = run_aifo_scenario();
  EXPECT_NE(r.trace.find("\"ev\":\"sdrop\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"ev\":\"deq\""), std::string::npos);
  EXPECT_NE(r.metrics.find("drops.sched"), std::string::npos);
  const auto again = run_aifo_scenario();
  EXPECT_EQ(r.trace, again.trace);
  EXPECT_EQ(r.metrics, again.metrics);
}

}  // namespace
}  // namespace tcn
