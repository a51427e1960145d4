// Observability layer tests: histogram bucket math, registry scoping,
// flight recorder ring, exporter byte formats, the property battery that
// locks the port/marker instrumentation to the simulation's own accounting
// across every scheduler and AQM, and the same grid holding each queue's
// counters equal to what it holds and summing to its port's counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/schemes.hpp"
#include "fault/fault.hpp"
#include "net/switch.hpp"
#include "net/trace.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"
#include "workload/distributions.hpp"
#include "workload/traffic_gen.hpp"

namespace tcn::obs {
namespace {

// ------------------------------------------------------------ histogram ----

TEST(LogHistogram, ExactBelowSubBuckets) {
  for (std::uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_floor(v), v);
  }
}

TEST(LogHistogram, FloorIsInverseOfIndex) {
  // Every bucket floor maps back to its own bucket, and the value one
  // below the floor maps to the previous bucket.
  for (std::size_t idx = 0; idx < 1500; ++idx) {
    const auto floor = LogHistogram::bucket_floor(idx);
    EXPECT_EQ(LogHistogram::bucket_index(floor), idx) << "idx=" << idx;
    if (floor > 0) {
      EXPECT_EQ(LogHistogram::bucket_index(floor - 1), idx - 1);
    }
  }
}

TEST(LogHistogram, RelativeErrorBounded) {
  // Bucket width / floor <= 1/kSubBuckets for every value past the linear
  // range: the histogram's ~3% accuracy contract.
  for (std::uint64_t v : {100ull, 1'000ull, 123'456ull, 1'000'000'000ull,
                          1'234'567'890'123ull}) {
    const auto idx = LogHistogram::bucket_index(v);
    const auto width =
        LogHistogram::bucket_ceil(idx) - LogHistogram::bucket_floor(idx);
    EXPECT_LE(static_cast<double>(width),
              static_cast<double>(LogHistogram::bucket_floor(idx)) /
                  LogHistogram::kSubBuckets +
                  1.0)
        << "v=" << v;
  }
}

TEST(LogHistogram, CountSumMinMaxExact) {
  LogHistogram h;
  h.record(10);
  h.record(1'000'000);
  h.record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1'000'013u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 1'000'000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1'000'013.0 / 3.0);
}

TEST(LogHistogram, NegativeClampsToZero) {
  LogHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(LogHistogram, PercentileClampedToObservedRange) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1'000'000);
  // All mass in one bucket: every percentile is the exact observed value,
  // not the bucket midpoint.
  EXPECT_EQ(h.percentile(0.0), 1'000'000u);
  EXPECT_EQ(h.percentile(50.0), 1'000'000u);
  EXPECT_EQ(h.percentile(100.0), 1'000'000u);
}

TEST(LogHistogram, PercentileWithinRelativeError) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 10'000; ++v) h.record(static_cast<std::int64_t>(v));
  const auto p50 = h.percentile(50.0);
  const auto p99 = h.percentile(99.0);
  EXPECT_NEAR(static_cast<double>(p50), 5'000.0, 5'000.0 / 16);
  EXPECT_NEAR(static_cast<double>(p99), 9'900.0, 9'900.0 / 16);
}

TEST(LogHistogram, SparseBucketExport) {
  LogHistogram h;
  h.record(1);
  h.record(1);
  h.record(1'000'000);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].first, 1u);
  EXPECT_EQ(buckets[0].second, 2u);
  EXPECT_EQ(buckets[1].second, 1u);
  std::uint64_t total = 0;
  for (const auto& [floor, count] : buckets) total += count;
  EXPECT_EQ(total, h.count());
}

// ------------------------------------------------------------- registry ----

TEST(MetricsRegistry, FindOrCreateReturnsStableAddresses) {
  MetricsRegistry reg;
  Counter* a = &reg.counter("x");
  reg.counter("y");
  reg.counter("z");
  EXPECT_EQ(&reg.counter("x"), a);  // map nodes: stable across inserts
  a->inc(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, ReadCountersSumTheirReadsAtSnapshotTime) {
  MetricsRegistry reg;
  std::uint64_t web_a = 0;
  std::uint64_t web_b = 0;
  reg.read_counter("arrivals.web", [&] { return web_a; });
  reg.read_counter("arrivals.web", [&] { return web_b; });  // same name
  reg.counter("counted").inc(2);
  web_a = 3;
  web_b = 4;
  EXPECT_EQ(reg.size(), 2u);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "arrivals.web");
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_EQ(snap.counters[1].name, "counted");
  EXPECT_EQ(snap.counters[1].value, 2u);
  web_a = 10;  // a later snapshot reads the count as it is then
  EXPECT_EQ(reg.snapshot().counters[0].value, 14u);
}

TEST(MetricsRegistry, ANameIsCountedOrReadNeverBoth) {
  MetricsRegistry reg;
  reg.counter("counted");
  EXPECT_THROW(reg.read_counter("counted", [] { return 0ULL; }),
               std::logic_error);
  reg.read_counter("read", [] { return 0ULL; });
  EXPECT_THROW(reg.counter("read"), std::logic_error);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc(2);
  reg.histogram("h.b").record(1);
  reg.histogram("h.a").record(2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "h.a");
  EXPECT_EQ(snap.histograms[1].name, "h.b");
  EXPECT_FALSE(snap.empty());
}

TEST(MetricsRegistry, ScopeInstallsAndNests) {
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
  MetricsRegistry outer;
  {
    MetricsRegistry::Scope s1(outer);
    EXPECT_EQ(MetricsRegistry::current(), &outer);
    {
      MetricsRegistry inner;
      MetricsRegistry::Scope s2(inner);
      EXPECT_EQ(MetricsRegistry::current(), &inner);
    }
    EXPECT_EQ(MetricsRegistry::current(), &outer);
  }
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
}

TEST(Gauge, TracksLastMinMax) {
  Gauge g;
  g.set(5.0);
  g.set(-2.0);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.last(), 3.0);
  EXPECT_DOUBLE_EQ(g.min(), -2.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  EXPECT_EQ(g.sets(), 3u);
}

// ------------------------------------------------------ flight recorder ----

net::TraceRecord make_record(sim::Time t, net::TraceEvent ev,
                             std::uint64_t flow) {
  net::TraceRecord r;
  r.t = t;
  r.event = ev;
  r.port = "sw0.p1";
  r.queue = 2;
  r.flow = flow;
  r.seq = 7;
  r.size = 1500;
  r.queue_bytes = 3'000;
  r.port_bytes = 4'500;
  return r;
}

TEST(FlightRecorder, RingKeepsLastNInOrder) {
  FlightRecorder fr(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    fr.on_event(make_record(100 * static_cast<sim::Time>(i),
                            net::TraceEvent::kEnqueue, i));
  }
  EXPECT_EQ(fr.events_seen(), 10u);
  const auto tail = fr.tail();
  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tail[i].flow, 6u + i);  // oldest-first: events 6,7,8,9
  }
}

TEST(FlightRecorder, FormatTailMentionsEveryEvent) {
  FlightRecorder fr(8);
  fr.on_event(make_record(42, net::TraceEvent::kEnqueue, 1));
  fr.on_event(make_record(43, net::TraceEvent::kDrop, 2));
  const auto text = fr.format_tail();
  EXPECT_NE(text.find("last 2 of 2"), std::string::npos);
  EXPECT_NE(text.find("enq"), std::string::npos);
  EXPECT_NE(text.find("drop"), std::string::npos);
  EXPECT_NE(text.find("sw0.p1"), std::string::npos);
  EXPECT_NE(text.find("t=43"), std::string::npos);
}

// ------------------------------------------------------------ exporters ----

TEST(Exporters, TraceRecordJsonBytes) {
  const auto rec = make_record(1'234, net::TraceEvent::kDequeue, 9);
  auto with_sojourn = rec;
  with_sojourn.sojourn = 777;
  EXPECT_EQ(trace_record_to_json(with_sojourn),
            "{\"t\":1234,\"ev\":\"deq\",\"port\":\"sw0.p1\",\"q\":2,"
            "\"flow\":9,\"seq\":7,\"size\":1500,\"dscp\":0,\"qbytes\":3000,"
            "\"pbytes\":4500,\"sojourn\":777}");
}

TEST(Exporters, JsonlWriterEmitsHeaderThenRecords) {
  std::ostringstream out;
  JsonlTraceWriter w(out);
  w.on_event(make_record(1, net::TraceEvent::kEnqueue, 1));
  w.on_event(make_record(2, net::TraceEvent::kDequeue, 1));
  EXPECT_EQ(w.records_written(), 2u);
  const auto text = out.str();
  EXPECT_EQ(text.find("{\"schema\":\"tcn-trace-1\"}\n"), 0u);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Exporters, MetricsJsonHasSchemaAndSections) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(5);
  reg.gauge("b.gauge").set(1.5);
  reg.histogram("c.hist").record(1000);
  const auto doc = metrics_to_json(reg.snapshot());
  EXPECT_NE(doc.find("\"schema\": \"tcn-metrics-1\""), std::string::npos);
  EXPECT_NE(doc.find("\"a.count\": 5"), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  // Deterministic: same registry, same bytes.
  EXPECT_EQ(doc, metrics_to_json(reg.snapshot()));
}

// ----------------------------------------------------- property battery ----

/// Snapshot indexed for assertions.
struct Indexed {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, MetricsSnapshot::HistogramValue> histograms;

  explicit Indexed(const MetricsSnapshot& s) {
    for (const auto& c : s.counters) counters[c.name] = c.value;
    for (const auto& h : s.histograms) histograms[h.name] = h;
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t hist_count(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.count;
  }
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Observer asserting globally monotone event timestamps (events are
/// emitted in simulation order across all ports).
class MonotoneChecker final : public net::PortObserver {
 public:
  void on_event(const net::TraceRecord& rec) override {
    EXPECT_GE(rec.t, last_) << "timestamps went backwards at " << rec.port;
    last_ = rec.t;
    ++events_;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  sim::Time last_ = 0;
  std::uint64_t events_ = 0;
};

enum class MarkSide { kEnqueue, kDequeue };

struct GridCase {
  const char* label;
  core::SchedKind sched;
  core::Scheme scheme;
  MarkSide side;
};

// Every scheduler and every AQM appears at least once; marking side is the
// scheme's documented hook (TCN/CoDel/dequeue-RED mark at dequeue, the RED
// family/MQ-ECN/PIE/ideal-rate at enqueue).
const GridCase kGrid[] = {
    {"fifo+tcn", core::SchedKind::kFifo, core::Scheme::kTcn,
     MarkSide::kDequeue},
    {"sp+red", core::SchedKind::kSp, core::Scheme::kRedPerQueue,
     MarkSide::kEnqueue},
    {"wfq+codel", core::SchedKind::kWfq, core::Scheme::kCodel,
     MarkSide::kDequeue},
    {"dwrr+red-port", core::SchedKind::kDwrr, core::Scheme::kRedPerPort,
     MarkSide::kEnqueue},
    // MQ-ECN needs a RoundRateProvider scheduler (DWRR/WRR only).
    {"dwrr+mq-ecn", core::SchedKind::kDwrr, core::Scheme::kMqEcn,
     MarkSide::kEnqueue},
    {"wrr+ideal-rate", core::SchedKind::kWrr, core::Scheme::kIdealRate,
     MarkSide::kEnqueue},
    {"sp-dwrr+pie", core::SchedKind::kSpDwrr, core::Scheme::kPie,
     MarkSide::kEnqueue},
    {"sp-wfq+red-dequeue", core::SchedKind::kSpWfq,
     core::Scheme::kRedDequeue, MarkSide::kDequeue},
    {"pifo+tcn-prob", core::SchedKind::kPifoStfq, core::Scheme::kTcnProb,
     MarkSide::kDequeue},
    // Approximate rank schedulers: the marker must stay oblivious to both
    // the SP-PIFO level adaptation and the AIFO admission gate.
    {"sp-pifo+tcn", core::SchedKind::kSpPifo, core::Scheme::kTcn,
     MarkSide::kDequeue},
    {"aifo+red-port", core::SchedKind::kAifo, core::Scheme::kRedPerPort,
     MarkSide::kEnqueue},
};

core::FctExperiment grid_config(const GridCase& c) {
  core::FctExperiment cfg;
  cfg.scheme = c.scheme;
  cfg.sched.kind = c.sched;
  cfg.sched.num_sp = 1;
  cfg.load = 0.6;
  cfg.num_flows = 40;
  cfg.seed = 11;
  cfg.params.rtt_lambda = 256 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.params.codel_target = 51 * sim::kMicrosecond;
  cfg.params.codel_interval = 1024 * sim::kMicrosecond;
  cfg.params.tcn_tmin = 128 * sim::kMicrosecond;
  cfg.params.tcn_tmax = 384 * sim::kMicrosecond;
  cfg.params.tcn_pmax = 1.0;
  cfg.params.seed = cfg.seed;
  cfg.time_limit = 600 * sim::kSecond;
  cfg.collect_metrics = true;
  return cfg;
}

TEST(ObsProperties, PortAccountingHoldsAcrossSchedulersAndAqms) {
  for (const auto& c : kGrid) {
    SCOPED_TRACE(c.label);
    auto cfg = grid_config(c);
    MonotoneChecker monotone;
    cfg.extra_observer = &monotone;
    const auto report = core::run_fct_experiment(cfg);
    ASSERT_TRUE(report.metrics_collected);
    EXPECT_GT(monotone.events(), 0u);
    const Indexed m(report.metrics);

    std::uint64_t total_deq = 0;
    std::uint64_t total_marks = 0;
    std::size_t queue_prefixes = 0;
    std::map<std::string, std::uint64_t> port_deq;  // port prefix -> deq
    for (const auto& [name, enq] : m.counters) {
      if (!ends_with(name, ".enq_packets")) continue;
      ++queue_prefixes;
      const auto prefix = name.substr(0, name.size() - 12);  // strip suffix
      const auto deq = m.counter(prefix + ".deq_packets");
      // enq counts only ADMITTED packets (the tail-drop path rejects before
      // the enqueue counter), and the run drains (every flow completes, no
      // time-limit cut), so every admitted packet eventually dequeues. The
      // drop counter sits on top of enq: rejected arrivals, never enqueued.
      EXPECT_EQ(enq, deq) << prefix;
      // Dequeue-side sojourn histogram: exactly one sample per dequeue.
      EXPECT_EQ(m.hist_count(prefix + ".sojourn_ns"), deq) << prefix;
      total_deq += deq;
      const auto port_prefix = prefix.substr(0, prefix.rfind(".q"));
      port_deq[port_prefix] += deq;
    }
    EXPECT_GT(queue_prefixes, 0u);
    EXPECT_GT(total_deq, 0u);

    for (const auto& [port_prefix, deq] : port_deq) {
      const auto marks_enq = m.counter(port_prefix + ".marks.enqueue");
      const auto marks_deq = m.counter(port_prefix + ".marks.dequeue");
      total_marks += marks_enq + marks_deq;
      if (c.side == MarkSide::kDequeue) {
        EXPECT_EQ(marks_enq, 0u) << port_prefix;
        EXPECT_LE(marks_deq, deq) << port_prefix;
      } else {
        EXPECT_EQ(marks_deq, 0u) << port_prefix;
      }
      // One mark-latency sample per mark, regardless of side.
      EXPECT_EQ(m.hist_count(port_prefix + ".mark_sojourn_ns"),
                marks_enq + marks_deq)
          << port_prefix;
      // Inter-dequeue gaps: one sample per dequeue after the port's first.
      if (deq > 0) {
        EXPECT_EQ(m.hist_count(port_prefix + ".interdeq_gap_ns"), deq - 1)
            << port_prefix;
      }
      // Buffer-drop rollup equals the per-queue attribution.
      std::uint64_t q_drops = 0;
      for (const auto& [name, v] : m.counters) {
        if (name.rfind(port_prefix + ".q", 0) == 0 &&
            ends_with(name, ".drop_packets")) {
          q_drops += v;
        }
      }
      EXPECT_EQ(m.counter(port_prefix + ".drops.buffer"), q_drops)
          << port_prefix;
    }
    // The port-side mark total agrees with the experiment report's own
    // aggregation (switch marks; host NICs never mark in these scenarios).
    EXPECT_EQ(total_marks, report.switch_marks);

    // AQM self-accounting: every marker evaluated at least as often as it
    // marked, and its mark total matches the ports it served.
    std::uint64_t aqm_marks = 0;
    bool saw_aqm = false;
    for (const auto& [name, v] : m.counters) {
      if (name.rfind("aqm.", 0) != 0 || !ends_with(name, ".marks")) continue;
      saw_aqm = true;
      const auto evals =
          m.counter(name.substr(0, name.size() - 6) + ".evals");
      EXPECT_LE(v, evals) << name;
      aqm_marks += v;
    }
    EXPECT_TRUE(saw_aqm);
    EXPECT_EQ(aqm_marks, total_marks);
  }
}

TEST(ObsProperties, AifoSchedDropsAreDistinctFromBufferDrops) {
  // AIFO admission rejections are SCHEDULING drops: they land on the
  // drops.sched counter and FctReport::sched_drops, never on drops.buffer
  // (shared-buffer congestion) or the per-queue drop attribution, and the
  // marker never evaluates a rejected packet.
  auto cfg = grid_config(kGrid[0]);
  cfg.sched.kind = core::SchedKind::kAifo;
  cfg.sched.aifo_window = 16;
  cfg.sched.aifo_k = 0.0;           // strictest admission: headroom >= quantile
  cfg.star.buffer_bytes = 12'000;   // tight buffer so the gate engages
  cfg.load = 0.9;
  const auto report = core::run_fct_experiment(cfg);
  ASSERT_TRUE(report.metrics_collected);
  ASSERT_GT(report.sched_drops, 0u);
  const Indexed m(report.metrics);

  // Only switch ports run AIFO; host NICs ("port.<host>.nic") are plain
  // drop-tail FIFOs whose buffer drops are NOT in FctReport::switch_drops.
  std::uint64_t sched_total = 0;
  std::uint64_t buffer_total = 0;
  std::uint64_t q_drops = 0;
  for (const auto& [name, v] : m.counters) {
    if (name.rfind("port.sw", 0) != 0) continue;
    if (ends_with(name, ".drops.sched")) sched_total += v;
    if (ends_with(name, ".drops.buffer")) buffer_total += v;
    if (ends_with(name, ".drop_packets")) q_drops += v;
  }
  // The metric rollup matches the report's own aggregation on both axes,
  // and the buffer attribution is untouched by the admission gate.
  EXPECT_EQ(sched_total, report.sched_drops);
  EXPECT_EQ(buffer_total, report.switch_drops);
  EXPECT_EQ(buffer_total, q_drops);

  // Admitted packets still balance: enq counts only admitted arrivals and
  // the run drains, so every enqueue dequeues even while the gate rejects.
  for (const auto& [name, enq] : m.counters) {
    if (!ends_with(name, ".enq_packets")) continue;
    const auto prefix = name.substr(0, name.size() - 12);
    EXPECT_EQ(enq, m.counter(prefix + ".deq_packets")) << prefix;
  }
}

TEST(ObsProperties, CollectingMetricsChangesNoResult) {
  auto cfg = grid_config(kGrid[0]);
  cfg.collect_metrics = false;
  const auto off = core::run_fct_experiment(cfg);
  cfg.collect_metrics = true;
  const auto on = core::run_fct_experiment(cfg);
  EXPECT_FALSE(off.metrics_collected);
  EXPECT_TRUE(on.metrics_collected);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.sim_end, on.sim_end);
  EXPECT_EQ(off.flows_completed, on.flows_completed);
  EXPECT_EQ(off.switch_drops, on.switch_drops);
  EXPECT_EQ(off.switch_marks, on.switch_marks);
  EXPECT_DOUBLE_EQ(off.summary.avg_all_us, on.summary.avg_all_us);
  EXPECT_DOUBLE_EQ(off.summary.p99_small_us, on.summary.p99_small_us);
}

TEST(ObsProperties, SweepMetricsByteIdenticalAcrossJobs) {
  runner::SweepSpec spec;
  spec.name = "obs-test";
  spec.base = grid_config(kGrid[0]);
  spec.base.num_flows = 25;
  spec.schemes = {{"tcn", core::Scheme::kTcn},
                  {"codel", core::Scheme::kCodel}};
  spec.loads = {0.4, 0.7};
  spec.seeds = {1, 2};

  runner::SweepOptions opt1;
  opt1.jobs = 1;
  const auto res1 = runner::run_sweep(spec, opt1);
  runner::SweepOptions opt4;
  opt4.jobs = 4;
  const auto res4 = runner::run_sweep(spec, opt4);
  ASSERT_TRUE(res1.ok());
  ASSERT_TRUE(res4.ok());
  EXPECT_EQ(runner::metrics_to_json(res1, "obs-test"),
            runner::metrics_to_json(res4, "obs-test"));
  EXPECT_EQ(runner::to_json(res1, "obs-test", /*include_timing=*/false),
            runner::to_json(res4, "obs-test", /*include_timing=*/false));
  // Every run actually collected metrics into the merged document.
  const auto doc = runner::metrics_to_json(res1, "obs-test");
  EXPECT_NE(doc.find("\"schema\": \"tcn-metrics-1\""), std::string::npos);
  for (const auto& r : res1.runs) {
    EXPECT_TRUE(r.report.metrics_collected);
    EXPECT_FALSE(r.report.metrics.empty());
  }
}

// ------------------------------------------------- queue conservation ----

/// What one conservation run exercised, summed over the switch ports.
struct ConservationRun {
  std::uint64_t busy_checks = 0;  ///< queue checks that saw a backlog
  std::uint64_t buffer_drops = 0;
  std::uint64_t sched_drops = 0;
  std::uint64_t fault_drops = 0;
};

/// Runs one grid cell on the star with the sampler on, built by hand so the
/// simulation can stop between short run(until) slices (run_fct_experiment
/// runs to completion in one call). After every slice, each queue's
/// enqueued minus dequeued packets and bytes must equal what it holds, and
/// the port's counters() must equal the sum of its queues' counters. After
/// the run, each channel must have sampled all of its queue's tx bytes.
/// The shared buffer is tight and AIFO's gate strict, so buffer and
/// admission drops happen too; `faults` is a --faults plan applied before
/// the traffic starts.
ConservationRun run_conservation(const GridCase& c,
                                 const std::string& faults = "") {
  core::FctExperiment cfg = grid_config(c);
  cfg.sched.num_queues = 4;
  cfg.sched.aifo_window = 16;
  cfg.sched.aifo_k = 0.0;
  cfg.star.num_queues = cfg.sched.num_queues;
  cfg.star.buffer_bytes = 24'000;

  net::PacketUidScope uid_scope;
  net::PacketPool pool;
  net::PacketPool::Scope pool_scope(pool);
  TimeSeriesConfig ts_cfg;
  ts_cfg.interval = 20 * sim::kMicrosecond;
  ts_cfg.max_samples = 0;
  TimeSeries series(ts_cfg);
  TimeSeries::Scope series_scope(series);

  sim::Simulator sim;
  topo::Network network = topo::build_star(
      sim, cfg.star, core::make_scheduler_factory(cfg.sched),
      core::make_marker_factory(cfg.scheme, cfg.params));
  fault::FaultInjector injector(sim, cfg.seed);
  if (!faults.empty()) injector.apply(network, fault::parse_fault_specs(faults));

  std::vector<const net::Port*> ports;
  std::vector<const net::Port*> switch_ports;
  net::Switch& sw = network.switch_at(0);
  for (std::size_t p = 0; p < sw.num_ports(); ++p) {
    ports.push_back(&sw.port(p));
    switch_ports.push_back(&sw.port(p));
  }
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    ports.push_back(&network.host(h).nic());
  }

  transport::FlowManager fm;
  std::vector<net::Host*> senders;
  for (std::size_t h = 1; h < network.num_hosts(); ++h) {
    senders.push_back(&network.host(h));
  }
  workload::GenConfig gen;
  gen.load = cfg.load;
  gen.num_flows = cfg.num_flows;
  gen.num_services = static_cast<std::uint32_t>(cfg.sched.num_queues);
  gen.seed = cfg.seed;
  workload::ConvergeGenerator converge(
      sim,
      [&fm](net::Host& src, net::Host& dst, transport::FlowSpec spec) {
        fm.start_flow(src, dst, std::move(spec));
      },
      senders, &network.host(0),
      &workload::distribution(workload::Kind::kCache), gen,
      [](std::uint32_t service, std::uint64_t size) {
        transport::FlowSpec spec;
        spec.size = size;
        spec.service = service;
        spec.data_dscp =
            transport::constant_dscp(static_cast<std::uint8_t>(service));
        spec.ack_dscp = static_cast<std::uint8_t>(service);
        return spec;
      });
  converge.start();
  series.start(sim);

  ConservationRun run;
  constexpr sim::Time kSlice = 50 * sim::kMicrosecond;
  for (sim::Time until = kSlice; sim.pending() > 0 && until <= sim::kSecond;
       until += kSlice) {
    sim.run(until);
    for (const net::Port* port : ports) {
      net::QueueCounters sum;
      std::uint64_t held_bytes = 0;
      for (std::size_t q = 0; q < port->num_queues(); ++q) {
        const net::QueueCounters& qc = port->queue_counters(q);
        const std::uint64_t packets = port->queue_packets(q);
        const std::uint64_t bytes = port->queue_bytes(q);
        if (qc.enq_packets - qc.tx_packets != packets ||
            qc.enq_bytes - qc.tx_bytes != bytes) {
          ADD_FAILURE() << port->name() << ".q" << q << " at t=" << sim.now()
                        << ": counted " << qc.enq_packets - qc.tx_packets
                        << " pkts / " << qc.enq_bytes - qc.tx_bytes
                        << " B, queue holds " << packets << " pkts / "
                        << bytes << " B";
          return run;
        }
        if (packets > 0) ++run.busy_checks;
        held_bytes += bytes;
        sum += qc;
      }
      if (port->counters() != sum || held_bytes != port->total_bytes()) {
        ADD_FAILURE() << port->name() << " at t=" << sim.now()
                      << ": port totals disagree with its queues";
        return run;
      }
    }
  }
  EXPECT_EQ(sim.pending(), 0u) << "the run did not drain";

  std::map<std::string, const TimeSeries::Channel*> by_name;
  for (const TimeSeries::Channel* ch : series.sorted_channels()) {
    by_name[ch->name()] = ch;
  }
  std::size_t channels = 0;
  for (const net::Port* port : ports) {
    for (std::size_t q = 0; q < port->num_queues(); ++q) {
      const auto it = by_name.find(port->name() + ".q" + std::to_string(q));
      if (it == by_name.end()) continue;
      ++channels;
      EXPECT_EQ(it->second->analyzer().total_tx_bytes(),
                port->queue_counters(q).tx_bytes)
          << it->first;
    }
  }
  EXPECT_EQ(channels, series.num_channels());
  for (const net::Port* port : switch_ports) {
    run.buffer_drops += port->counters().drops;
    run.sched_drops += port->counters().sched_drops;
    run.fault_drops += port->counters().fault_drops;
  }
  return run;
}

TEST(QueueConservation, HoldsAcrossSchedulersAndAqms) {
  for (const auto& c : kGrid) {
    SCOPED_TRACE(c.label);
    const ConservationRun run = run_conservation(c);
    EXPECT_GT(run.busy_checks, 0u);
    EXPECT_GT(run.buffer_drops + run.sched_drops, 0u);
    if (c.sched == core::SchedKind::kAifo) {
      EXPECT_GT(run.sched_drops, 0u);
    }
  }
}

TEST(QueueConservation, HoldsThroughALinkOutage) {
  // The bottleneck egress goes down mid-run: queued packets sit out the
  // outage while new arrivals are blackholed before they reach a queue.
  const ConservationRun run =
      run_conservation(kGrid[3], "linkdown:sw0.p0:5:20");
  EXPECT_GT(run.busy_checks, 0u);
  EXPECT_GT(run.fault_drops, 0u);
}

TEST(QueueConservation, HoldsThroughABufferSqueeze) {
  // Squeezing the shared buffer evicts nothing; arrivals tail-drop until
  // the backlog drains below the new cap.
  const ConservationRun run =
      run_conservation(kGrid[3], "squeeze:sw0.p0:6000:0:100");
  EXPECT_GT(run.busy_checks, 0u);
  EXPECT_GT(run.buffer_drops, 0u);
}

TEST(ObsProperties, TraceWriterCountsMatchTracer) {
  auto cfg = grid_config(kGrid[0]);
  cfg.num_flows = 10;
  MonotoneChecker counting;
  cfg.extra_observer = &counting;

  const std::string path = ::testing::TempDir() + "obs_trace_test.jsonl";
  cfg.trace_out = path;
  const auto report = core::run_fct_experiment(cfg);
  EXPECT_EQ(report.trace_records, counting.events());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::uint64_t lines = 0;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"schema\":\"tcn-trace-1\"}");
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, report.trace_records);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcn::obs
