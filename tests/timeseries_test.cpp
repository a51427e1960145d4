// obs::TimeSeries / obs::StabilityAnalyzer / LogHistogram::quantile units,
// plus the experiment- and sweep-level contracts: sampling changes no FCT
// result, the stability reduction rides the tcn-bench-1 JSON and the
// journal byte-identically for any --jobs, and old journals (no
// "stability" key) still parse.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "net/queue.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "runner/journal.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "topo/network.hpp"
#include "workload/distributions.hpp"

namespace {

using namespace tcn;

// ------------------------------------------------- LogHistogram::quantile ----

TEST(Quantile, EmptyAndEndpoints) {
  obs::LogHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.record(100);
  h.record(900);
  EXPECT_EQ(h.quantile(0.0), 100.0);
  EXPECT_EQ(h.quantile(-1.0), 100.0);
  EXPECT_EQ(h.quantile(1.0), 900.0);
  EXPECT_EQ(h.quantile(2.0), 900.0);
}

TEST(Quantile, ConstantDistributionReturnsTheConstant) {
  obs::LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(777);
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(h.quantile(q), 777.0) << "q=" << q;
  }
}

TEST(Quantile, UniformDistributionWithinBucketResolution) {
  // Uniform over 1..1000: buckets above 32 are log-linear with 32
  // sub-buckets per octave, so the relative quantization error is bounded
  // by one sub-bucket width (~1/32 ~= 3.1%); interpolation within the
  // bucket keeps the estimate near the exact order statistic.
  obs::LogHistogram h;
  for (int v = 1; v <= 1000; ++v) h.record(v);
  for (const auto [q, exact] :
       {std::pair{0.5, 500.0}, {0.9, 900.0}, {0.95, 950.0}, {0.99, 990.0}}) {
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, exact * 0.035) << "q=" << q;
  }
}

TEST(Quantile, ExactBucketsBelow32) {
  // Values below kSubBuckets land in exact unit-width buckets, so the
  // interpolated quantile of 0..31 (once each) tracks q * 32 to within one
  // bucket.
  obs::LogHistogram h;
  for (int v = 0; v < 32; ++v) h.record(v);
  EXPECT_NEAR(h.quantile(0.5), 16.0, 1.0);
  EXPECT_NEAR(h.quantile(0.25), 8.0, 1.0);
}

TEST(Quantile, MonotonicInQ) {
  obs::LogHistogram h;
  for (int v = 1; v <= 500; ++v) h.record(v * 7 % 3000);
  double prev = h.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(Quantile, AgreesWithPercentileToBucketWidth) {
  // quantile() refines percentile() (bucket midpoint) by in-bucket
  // interpolation; the two must agree to one bucket width. percentile()
  // itself stays byte-pinned by the golden metrics document.
  obs::LogHistogram h;
  for (int v = 1; v <= 2000; ++v) h.record(v);
  for (const double p : {50.0, 95.0, 99.0}) {
    const double mid = static_cast<double>(h.percentile(p));
    const double est = h.quantile(p / 100.0);
    EXPECT_NEAR(est, mid, mid / 16.0 + 1.0) << "p=" << p;
  }
}

// ---------------------------------------------------- StabilityAnalyzer -----

obs::SeriesPoint point(std::uint64_t depth, std::uint64_t deq = 0,
                       std::uint64_t sojourn_sum = 0, std::uint64_t marks = 0) {
  obs::SeriesPoint p;
  p.depth_bytes = depth;
  p.deq_packets = deq;
  p.sojourn_sum_ns = sojourn_sum;
  p.marks = marks;
  return p;
}

TEST(StabilityAnalyzer, ConstantDepthIsStable) {
  obs::StabilityAnalyzer a;
  for (int i = 0; i < 64; ++i) a.observe(point(40'000));
  const auto r = a.result(1'000'000);
  EXPECT_EQ(r.samples, 64u);
  EXPECT_EQ(r.oscillation_score, 0.0);
  EXPECT_EQ(r.depth_cv, 0.0);
  EXPECT_DOUBLE_EQ(r.depth_mean_bytes, 40'000.0);
  EXPECT_EQ(r.regime, obs::Regime::kStable);
}

TEST(StabilityAnalyzer, AlternatingDepthIsOscillating) {
  // A two-point distribution has Sarle bimodality 1 (the maximum) and CV 1
  // for 0/X swings; cap is far above the mean so the saturated regime does
  // not preempt the oscillation classification.
  obs::StabilityAnalyzer a;
  for (int i = 0; i < 256; ++i) {
    a.observe(point(i % 2 == 0 ? 0 : 100'000));
  }
  const auto r = a.result(1'000'000);
  EXPECT_NEAR(r.bimodality, 1.0, 0.02);
  EXPECT_NEAR(r.depth_cv, 1.0, 0.01);
  EXPECT_GE(r.oscillation_score, obs::StabilityAnalyzer::kOscillationThreshold);
  EXPECT_EQ(r.regime, obs::Regime::kOscillating);
  EXPECT_LT(r.lag1_autocorr, 0.0);  // perfect alternation anticorrelates
}

TEST(StabilityAnalyzer, HighOccupancyIsSaturated) {
  obs::StabilityAnalyzer a;
  for (int i = 0; i < 64; ++i) a.observe(point(90'000));
  EXPECT_EQ(a.result(100'000).regime, obs::Regime::kSaturated);
  // Unbounded channels (cap UINT64_MAX, e.g. host NICs) never saturate.
  obs::StabilityAnalyzer b;
  for (int i = 0; i < 64; ++i) b.observe(point(90'000));
  EXPECT_EQ(b.result(UINT64_MAX).regime, obs::Regime::kStable);
}

TEST(StabilityAnalyzer, TooFewSamplesNeverOscillates) {
  obs::StabilityAnalyzer a;
  for (std::size_t i = 0; i < obs::StabilityAnalyzer::kMinSamples - 1; ++i) {
    a.observe(point(i % 2 == 0 ? 0 : 100'000));
  }
  const auto r = a.result(1'000'000);
  EXPECT_EQ(r.oscillation_score, 0.0);
  EXPECT_EQ(r.regime, obs::Regime::kStable);
}

TEST(StabilityAnalyzer, MarkBurstinessIsTheFanoFactor) {
  // Alternating 0/8 marks per tick: mean 4, variance 16 -> Fano 4.
  obs::StabilityAnalyzer a;
  for (int i = 0; i < 256; ++i) {
    a.observe(point(1'000, 0, 0, i % 2 == 0 ? 0 : 8));
  }
  EXPECT_NEAR(a.result(1'000'000).mark_burstiness, 4.0, 0.05);
  // Constant marks per tick -> zero variance -> Fano 0.
  obs::StabilityAnalyzer b;
  for (int i = 0; i < 64; ++i) b.observe(point(1'000, 0, 0, 5));
  EXPECT_EQ(b.result(1'000'000).mark_burstiness, 0.0);
}

TEST(StabilityAnalyzer, SojournCvOverDequeuingTicks) {
  // Per-tick mean sojourn constant at 2000ns on every dequeuing tick (idle
  // ticks are excluded from the sojourn stream) -> CV 0.
  obs::StabilityAnalyzer a;
  for (int i = 0; i < 64; ++i) {
    a.observe(i % 2 == 0 ? point(1'000, 4, 8'000) : point(1'000));
  }
  EXPECT_EQ(a.result(1'000'000).sojourn_cv, 0.0);
}

TEST(StabilityAnalyzer, RegimeNamesRoundTrip) {
  for (const auto r : {obs::Regime::kStable, obs::Regime::kOscillating,
                       obs::Regime::kSaturated}) {
    EXPECT_EQ(obs::regime_from_name(obs::regime_name(r)), r);
  }
  EXPECT_EQ(obs::regime_from_name("garbage"), std::nullopt);
  EXPECT_EQ(obs::regime_from_name(""), std::nullopt);
}

// ----------------------------------------------------------- TimeSeries -----

TEST(TimeSeries, RingKeepsLastMaxSamplesButAnalyzerSeesAll) {
  obs::TimeSeriesConfig cfg;
  cfg.interval = 10 * sim::kMicrosecond;
  cfg.max_samples = 4;
  obs::TimeSeries ts(cfg);
  net::PacketQueue q;
  auto* ch = ts.add_channel("q0", q, 100'000);

  sim::Simulator s;
  // Keep the event queue non-empty through 10 sampler ticks; one 1000-byte
  // packet joins the queue just before each tick fires.
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(static_cast<sim::Time>(i * 10 + 9) * sim::kMicrosecond,
                  [&q, &s] { q.push(test::make_test_packet(1'000), s.now()); });
  }
  ts.start(s);
  s.run();

  EXPECT_EQ(ts.ticks(), 10u);
  EXPECT_EQ(ch->analyzer().samples(), 10u);  // exact despite ring bound
  const auto pts = ch->points();
  ASSERT_EQ(pts.size(), 4u);  // ring truncates to the last max_samples
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].t, pts[i].t);  // oldest-first unroll
  }
  EXPECT_EQ(pts.back().depth_bytes, 10'000u);  // the final tick's sample
  EXPECT_EQ(pts.back().depth_packets, 10u);
}

TEST(TimeSeries, AccumulatorsDrainPerTick) {
  obs::TimeSeriesConfig cfg;
  cfg.interval = 10 * sim::kMicrosecond;
  obs::TimeSeries ts(cfg);
  net::PacketQueue q;
  auto* ch = ts.add_channel("q0", q, 100'000);

  sim::Simulator s;
  // Three packets in at 1us; two out, after 2us and 4us, and a mark before
  // the first tick; nothing afterwards.
  s.schedule_at(1 * sim::kMicrosecond, [&q, &s] {
    q.push(test::make_test_packet(1'500), s.now());
    q.push(test::make_test_packet(1'500), s.now());
    q.push(test::make_test_packet(700), s.now());
  });
  s.schedule_at(3 * sim::kMicrosecond, [&q, &s] { q.pop(s.now()); });
  s.schedule_at(5 * sim::kMicrosecond, [&q, &s] {
    q.pop(s.now());
    ++q.counters().marks;
  });
  s.schedule_at(25 * sim::kMicrosecond, [] {});  // keeps tick 2 alive
  ts.start(s);
  s.run();

  const auto pts = ch->points();
  ASSERT_GE(pts.size(), 2u);
  EXPECT_EQ(pts[0].deq_packets, 2u);
  EXPECT_EQ(pts[0].sojourn_sum_ns, 6'000u);
  EXPECT_EQ(pts[0].marks, 1u);
  EXPECT_EQ(pts[0].tx_bytes, 3'000u);
  EXPECT_EQ(pts[0].depth_bytes, 700u);  // what the dequeues left behind
  EXPECT_EQ(pts[0].depth_packets, 1u);
  EXPECT_EQ(pts[1].deq_packets, 0u);  // a delta, not a running total
  EXPECT_EQ(pts[1].marks, 0u);
  EXPECT_EQ(pts[1].depth_bytes, 700u);  // depth is a level, not a sum
}

TEST(TimeSeries, SamplerStopsWhenSimDrainsAndRearms) {
  obs::TimeSeriesConfig cfg;
  cfg.interval = 10 * sim::kMicrosecond;
  obs::TimeSeries ts(cfg);
  const net::PacketQueue q;
  ts.add_channel("q0", q, 0);
  sim::Simulator s;
  s.schedule_at(35 * sim::kMicrosecond, [] {});
  ts.start(s);
  s.run();  // must return: the sampler stops once it is the only event
  const std::uint64_t first_ticks = ts.ticks();
  EXPECT_GE(first_ticks, 4u);

  // Re-arm for a second batch (the micro_core benchmark pattern).
  s.schedule_at(s.now() + 15 * sim::kMicrosecond, [] {});
  ts.start(s);
  s.run();
  EXPECT_GT(ts.ticks(), first_ticks);
}

/// Ten ticks of the channel on `q`, whose depth and dequeues vary tick to
/// tick.
void drive_ten_ticks(obs::TimeSeries& ts, net::PacketQueue& q) {
  sim::Simulator s;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(static_cast<sim::Time>(i * 10 + 5) * sim::kMicrosecond,
                  [&q, &s, i] {
                    for (int k = 0; k < 1 + i % 3; ++k) {
                      q.push(test::make_test_packet(1'500), s.now());
                    }
                    if (i % 2 == 1) q.pop(s.now());
                    if (i % 4 == 0) ++q.counters().marks;
                  });
  }
  ts.start(s);
  s.run();
}

TEST(TimeSeries, ZeroRingKeepsNoPointsAndTheSameReduction) {
  obs::TimeSeriesConfig cfg;
  cfg.interval = 10 * sim::kMicrosecond;
  cfg.max_samples = 4;
  obs::TimeSeries ringed(cfg);
  net::PacketQueue ringed_q;
  auto* with_ring = ringed.add_channel("q0", ringed_q, 100'000);
  drive_ten_ticks(ringed, ringed_q);

  cfg.max_samples = 0;
  obs::TimeSeries bare(cfg);
  net::PacketQueue bare_q;
  auto* without_ring = bare.add_channel("q0", bare_q, 100'000);
  drive_ten_ticks(bare, bare_q);

  EXPECT_EQ(with_ring->points().size(), 4u);
  EXPECT_TRUE(without_ring->points().empty());
  EXPECT_EQ(bare.ticks(), ringed.ticks());
  EXPECT_EQ(without_ring->analyzer().samples(), bare.ticks());
  const auto a = with_ring->analyzer().result(with_ring->cap_bytes());
  const auto b = without_ring->analyzer().result(without_ring->cap_bytes());
  EXPECT_GT(a.depth_mean_bytes, 0.0);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.depth_mean_bytes, b.depth_mean_bytes);
  EXPECT_EQ(a.depth_cv, b.depth_cv);
  EXPECT_EQ(a.oscillation_score, b.oscillation_score);
  EXPECT_EQ(a.sojourn_cv, b.sojourn_cv);
  EXPECT_EQ(a.mark_burstiness, b.mark_burstiness);
  EXPECT_EQ(a.lag1_autocorr, b.lag1_autocorr);
  EXPECT_EQ(a.bimodality, b.bimodality);
  EXPECT_EQ(a.regime, b.regime);
}

TEST(TimeSeries, DominantChannelByTxBytesThenName) {
  obs::TimeSeriesConfig cfg;
  cfg.interval = 10 * sim::kMicrosecond;
  obs::TimeSeries ts(cfg);
  net::PacketQueue qa;
  net::PacketQueue qb;
  ts.add_channel("p0.q1", qa, 0);
  ts.add_channel("p0.q0", qb, 0);
  EXPECT_EQ(ts.dominant_channel()->name(), "p0.q0");  // tie -> lexicographic

  // tx bytes reach the analyzer at tick time, so drive one sampling tick.
  sim::Simulator s;
  s.schedule_at(5 * sim::kMicrosecond, [&qa, &qb, &s] {
    qa.push(test::make_test_packet(3'000), s.now());
    qa.pop(s.now());
    qb.push(test::make_test_packet(1'500), s.now());
    qb.pop(s.now());
  });
  ts.start(s);
  s.run();
  EXPECT_EQ(ts.dominant_channel()->name(), "p0.q1");  // most bytes wins
}

// ------------------------------------------------- experiment / sweep -------

core::FctExperiment small_cfg() {
  core::FctExperiment cfg;
  cfg.scheme = core::Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;  // for the kRedPerQueue jobs
  cfg.sched.kind = core::SchedKind::kDwrr;
  cfg.load = 0.5;
  cfg.num_flows = 40;
  cfg.num_services = 2;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 5;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.seed = 7;
  return cfg;
}

TEST(TimeSeriesExperiment, SamplingChangesNoSimulationResult) {
  auto off = small_cfg();
  const auto r_off = core::run_fct_experiment(off);
  ASSERT_FALSE(r_off.stability_analyzed);

  auto on = small_cfg();
  on.timeseries.interval = 50 * sim::kMicrosecond;
  const auto r_on = core::run_fct_experiment(on);
  ASSERT_TRUE(r_on.stability_analyzed);
  EXPECT_GT(r_on.series_ticks, 0u);
  EXPECT_GT(r_on.series_channels, 0u);
  EXPECT_FALSE(r_on.stability_channel.empty());
  EXPECT_GT(r_on.stability.samples, 0u);

  // The sampler adds tick events but must not perturb the simulation: every
  // FCT, drop and mark statistic is bit-identical.
  EXPECT_EQ(r_on.flows_completed, r_off.flows_completed);
  EXPECT_DOUBLE_EQ(r_on.summary.avg_all_us, r_off.summary.avg_all_us);
  EXPECT_DOUBLE_EQ(r_on.summary.p99_small_us, r_off.summary.p99_small_us);
  EXPECT_EQ(r_on.summary.timeouts, r_off.summary.timeouts);
  EXPECT_EQ(r_on.switch_drops, r_off.switch_drops);
  EXPECT_EQ(r_on.switch_marks, r_off.switch_marks);
  // Tick events do grow the event count -- the one legitimate difference.
  EXPECT_GT(r_on.events, r_off.events);
}

TEST(TimeSeriesExperiment, SeriesOutWritesTcnSeries1) {
  auto cfg = small_cfg();
  cfg.num_flows = 20;
  cfg.series_out = ::testing::TempDir() + "series_out.jsonl";
  const auto report = core::run_fct_experiment(cfg);
  ASSERT_TRUE(report.stability_analyzed);  // --series-out implies sampling

  std::ifstream in(cfg.series_out);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("\"tcn-series-1\""), std::string::npos);
  std::size_t channel_lines = 0;
  for (std::string line; std::getline(in, line);) {
    EXPECT_NE(line.find("\"channel\""), std::string::npos);
    EXPECT_NE(line.find("\"stability\""), std::string::npos);
    ++channel_lines;
  }
  EXPECT_EQ(channel_lines, report.series_channels);
  std::remove(cfg.series_out.c_str());
}

std::vector<runner::Job> sampled_jobs() {
  std::vector<runner::Job> jobs;
  for (const double load : {0.4, 0.6}) {
    for (const auto scheme : {core::Scheme::kTcn, core::Scheme::kRedPerQueue}) {
      runner::Job j;
      j.group = "ts_sweep";
      j.label = core::scheme_name(scheme);
      j.cfg = small_cfg();
      j.cfg.scheme = scheme;
      j.cfg.load = load;
      j.cfg.num_flows = 30;
      j.cfg.timeseries.interval = 100 * sim::kMicrosecond;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

TEST(TimeSeriesSweep, StabilityRidesJsonByteIdenticallyForAnyJobs) {
  runner::SweepOptions one;
  one.jobs = 1;
  const auto res1 = runner::run_jobs(sampled_jobs(), one);
  ASSERT_TRUE(res1.ok());

  runner::SweepOptions four;
  four.jobs = 4;
  const auto res4 = runner::run_jobs(sampled_jobs(), four);
  ASSERT_TRUE(res4.ok());

  const auto doc1 = runner::to_json(res1, "ts_sweep", /*include_timing=*/false);
  const auto doc4 = runner::to_json(res4, "ts_sweep", /*include_timing=*/false);
  EXPECT_EQ(doc1, doc4);
  EXPECT_NE(doc1.find("\"stability\""), std::string::npos);
  EXPECT_NE(doc1.find("\"regime\""), std::string::npos);
}

TEST(TimeSeriesSweep, JournalRoundTripsStability) {
  const std::string path = ::testing::TempDir() + "ts_journal.jsonl";
  runner::SweepOptions opt;
  opt.jobs = 2;
  opt.journal_out = path;
  opt.journal_name = "ts_sweep";
  const auto res = runner::run_jobs(sampled_jobs(), opt);
  ASSERT_TRUE(res.ok());

  const auto data = runner::load_journal(path);
  ASSERT_EQ(data.entries.size(), res.runs.size());
  for (const auto& [index, rec] : data.entries) {
    const auto& orig = res.runs[index];
    ASSERT_TRUE(rec.report.stability_analyzed);
    EXPECT_EQ(rec.report.stability_channel, orig.report.stability_channel);
    EXPECT_EQ(rec.report.series_ticks, orig.report.series_ticks);
    EXPECT_EQ(rec.report.stability.samples, orig.report.stability.samples);
    EXPECT_DOUBLE_EQ(rec.report.stability.oscillation_score,
                     orig.report.stability.oscillation_score);
    EXPECT_DOUBLE_EQ(rec.report.stability.sojourn_cv,
                     orig.report.stability.sojourn_cv);
    EXPECT_EQ(rec.report.stability.regime, orig.report.stability.regime);
  }
  std::remove(path.c_str());
}

TEST(TimeSeriesSweep, UnsampledJournalsStillParse) {
  // Backward compatibility: a journal written without sampling has no
  // "stability" key; the parser must default it off, not throw.
  const std::string path = ::testing::TempDir() + "ts_journal_plain.jsonl";
  auto jobs = sampled_jobs();
  for (auto& j : jobs) j.cfg.timeseries = {};
  runner::SweepOptions opt;
  opt.jobs = 2;
  opt.journal_out = path;
  opt.journal_name = "ts_sweep";
  const auto res = runner::run_jobs(std::move(jobs), opt);
  ASSERT_TRUE(res.ok());

  const auto data = runner::load_journal(path);
  ASSERT_EQ(data.entries.size(), res.runs.size());
  for (const auto& [index, rec] : data.entries) {
    EXPECT_FALSE(rec.report.stability_analyzed);
  }
  std::remove(path.c_str());
}

}  // namespace
