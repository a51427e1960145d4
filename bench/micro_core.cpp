// Hot-path microbenchmarks: the per-event and per-packet costs that bound
// simulation throughput at 10G leaf-spine scale, plus the AQM decision and
// scheduler dequeue costs (TCN's marking decision should be the cheapest of
// all schemes -- a single compare, Sec. 4.2).
//
// Self-contained harness (no google-benchmark): each benchmark reports
// steady-state operations/sec, and --json emits BENCH_micro.json in the
// tcn-bench-1 layout so CI can track the perf trajectory next to
// BENCH_suite.json. --gate checks the two in-binary ratios below (calendar
// queue vs binary heap, time-series sampler on vs off, the latter timed as
// an interleaved pair); the metrics on/off pair, timed the same way, and
// the sampler tick's own per-channel cost are reported but not gated.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aqm/codel.hpp"
#include "aqm/red_ecn.hpp"
#include "aqm/tcn.hpp"
#include "net/fifo_scheduler.hpp"
#include "net/host.hpp"
#include "net/marker.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "runner/flags.hpp"
#include "sched/dwrr.hpp"
#include "sched/wfq.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "traffic/flow_slab.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace tcn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One benchmark outcome: `ops` total operations over `secs` wall seconds,
/// with throughput taken from the single fastest call (see measure()).
struct BenchResult {
  std::string label;
  std::uint64_t ops = 0;
  double secs = 0.0;
  std::uint64_t ops_per_call = 0;
  double best_call_secs = 0.0;
  // Pool telemetry captured by the packet benchmarks (0 elsewhere).
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_reused = 0;
  std::uint64_t pool_recycled = 0;

  [[nodiscard]] double ops_per_sec() const {
    return best_call_secs > 0.0
               ? static_cast<double>(ops_per_call) / best_call_secs
               : 0.0;
  }
};

/// Run `body` (which executes `ops_per_call` operations) repeatedly until
/// `min_secs` of measured wall time accumulates; one unmeasured warmup call
/// lets pools/heaps reach steady state first. Throughput is estimated from
/// the *fastest* call -- the minimum-time estimator is robust against
/// scheduler preemption and timer-interrupt noise on a shared/1-CPU box,
/// where a mean would smear those spikes into the result.
template <typename Body>
BenchResult measure(std::string label, std::uint64_t ops_per_call, Body body,
                    double min_secs) {
  body();  // warmup: slab growth, heap-vector growth, branch predictors
  BenchResult r;
  r.label = std::move(label);
  r.ops_per_call = ops_per_call;
  r.best_call_secs = 1e30;
  const auto t0 = Clock::now();
  do {
    const auto c0 = Clock::now();
    body();
    const double call_secs = seconds_since(c0);
    if (call_secs < r.best_call_secs) r.best_call_secs = call_secs;
    r.ops += ops_per_call;
    r.secs = seconds_since(t0);
  } while (r.secs < min_secs);
  return r;
}

/// A pair of rows whose ratio is gated (see measure_pair()).
struct PairResult {
  BenchResult a;
  BenchResult b;
  /// Median over rounds of the B call's time over the A call's.
  double slowdown = 0.0;
};

/// measure() for an A/B pair that is compared: the bodies alternate, one
/// call each per round (AB, then BA, so neither side always runs second),
/// inside one timing loop of 2 * min_secs. Drift in host speed then lands
/// on both sides alike, which two rows timed one after the other cannot
/// promise on a shared host. Each row keeps measure()'s fastest-call
/// throughput; the gated ratio is `slowdown`, the median of the per-round
/// B/A call-time ratios.
template <typename BodyA, typename BodyB>
PairResult measure_pair(std::string label_a, std::string label_b,
                        std::uint64_t ops_per_call, BodyA body_a,
                        BodyB body_b, double min_secs) {
  body_a();  // warmup, as in measure()
  body_b();
  PairResult r;
  r.a.label = std::move(label_a);
  r.b.label = std::move(label_b);
  for (BenchResult* row : {&r.a, &r.b}) {
    row->ops_per_call = ops_per_call;
    row->best_call_secs = 1e30;
  }
  const auto call = [&](auto& body, BenchResult& row) {
    const auto c0 = Clock::now();
    body();
    const double secs = seconds_since(c0);
    row.best_call_secs = std::min(row.best_call_secs, secs);
    row.ops += ops_per_call;
    row.secs += secs;
    return secs;
  };
  std::vector<double> ratios;
  const auto t0 = Clock::now();
  do {
    if (ratios.size() % 2 == 0) {
      const double a = call(body_a, r.a);
      ratios.push_back(call(body_b, r.b) / a);
    } else {
      const double b = call(body_b, r.b);
      ratios.push_back(b / call(body_a, r.a));
    }
  } while (seconds_since(t0) < 2 * min_secs);
  const auto mid =
      ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  r.slowdown = *mid;
  return r;
}

// ------------------------------------------------------------ event path ----

/// 32-byte event payload: the realistic hot-path capture (a pooled
/// PacketPtr plus this-pointer and queue index comes to 32 bytes), which
/// must still fit the simulator's inline callback storage.
struct Payload {
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

constexpr int kEventBatch = 1024;

/// Classic hold-model benchmark over a bare pending-event container: keep
/// kEventBatch entries pending; each operation pops the minimum and pushes
/// a replacement a pseudo-random near-future delta later (the moving-window
/// distribution a NIC-rate simulator produces). Both queue types run the
/// IDENTICAL driver, so the ratio isolates the container structure -- the
/// calendar's O(1) place/drain against the heap's O(log n) sifts -- with no
/// slot-pool or callback cost diluting it. This is the in-binary baseline
/// pair the event-path CI gate compares (event_path_calendar vs
/// event_path_heap >= 1.5x).
template <typename Queue>
BenchResult bench_event_queue(std::string label, double min_secs) {
  Queue q;
  sim::Time clock = 0;
  std::uint64_t seq = 1;
  for (int i = 0; i < kEventBatch; ++i) {
    q.push(sim::EventEntry{clock + (i * 7919) % 10'000, seq++, 0, 0});
  }
  std::uint64_t sink = 0;
  return measure(
      std::move(label), kEventBatch,
      [&] {
        for (int i = 0; i < kEventBatch; ++i) {
          const sim::EventEntry e = q.pop();
          clock = e.at;
          sink += static_cast<std::uint64_t>(e.at);
          q.push(sim::EventEntry{clock + (i * 7919) % 10'000, seq++, 0, 0});
        }
        if (sink == 0) std::abort();
      },
      min_secs);
}

// Reuses one simulator across batches so it measures the *steady state*:
// after the warmup batch the pending set, slot pool and free list have all
// plateaued and every schedule/fire is allocation-free.
BenchResult bench_event_inline(double min_secs) {
  sim::Simulator s;
  std::uint64_t sink = 0;
  BenchResult r = measure(
      "event_schedule_fire", kEventBatch,
      [&] {
        for (int i = 0; i < kEventBatch; ++i) {
          s.schedule_in((i * 7919) % 10'000,
                        [&sink, p = Payload{1, 2, 3, static_cast<std::uint64_t>(
                                                         i)}] { sink += p.d; });
        }
        s.run();
        if (sink == 0) std::abort();  // defeat dead-code elimination
      },
      min_secs);
  return r;
}

constexpr int kChainLen = 4096;

BenchResult bench_timer_chain(double min_secs) {
  // Self-clocked rescheduling chain -- the RTO/pacing-timer pattern.
  sim::Simulator s;
  int remaining = 0;
  return measure(
      "timer_chain", kChainLen,
      [&] {
        remaining = kChainLen;
        struct Tick {
          sim::Simulator* s;
          int* remaining;
          Payload pad{};
          void operator()() {
            if (--*remaining > 0) s->schedule_in(100, Tick{*this});
          }
        };
        s.schedule_in(0, Tick{&s, &remaining});
        s.run();
        if (remaining != 0) std::abort();
      },
      min_secs);
}

// ----------------------------------------------------------- packet path ----

constexpr int kPacketBatch = 1024;
constexpr int kInFlight = 32;

/// Steady-state packet churn against the per-run pool: hold a small
/// in-flight population (as a port's wire + queues would), release, repeat.
/// After warmup every acquire is a free-list pop -- zero heap traffic.
BenchResult bench_packet_pooled(double min_secs) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  std::vector<net::PacketPtr> in_flight;
  in_flight.reserve(kInFlight);
  BenchResult r = measure(
      "packet_churn_pooled", kPacketBatch,
      [&] {
        for (int i = 0; i < kPacketBatch / kInFlight; ++i) {
          for (int j = 0; j < kInFlight; ++j) {
            auto p = net::make_packet();
            p->size = 1500;
            in_flight.push_back(std::move(p));
          }
          in_flight.clear();  // recycles the whole population
        }
      },
      min_secs);
  r.pool_fresh = pool.fresh_allocs();
  r.pool_reused = pool.reuses();
  r.pool_recycled = pool.recycles();
  return r;
}

// -------------------------------------------------------- flow-slab churn ----

constexpr int kFlowBatch = 256;
constexpr int kFlowInFlight = 32;

/// Open-loop flow churn against the FlowSlab: acquire a slot, construct the
/// TcpSink/TcpSender pair into it (recycled ports included), hold a small
/// concurrent population, recycle. After warmup every acquire is a LIFO
/// free-list pop and the TCP objects reconstruct into warm slots -- the
/// steady-state cost of starting one flow in the open-loop engine.
BenchResult bench_flow_slab(double min_secs) {
  sim::Simulator s;
  net::PacketUidScope uids;
  traffic::FlowUidScope fuids;
  net::PortConfig nic;
  nic.rate_bps = 10'000'000'000ULL;
  net::Host src(s, "h0", 1, nic);
  net::Host dst(s, "h1", 2, nic);
  traffic::FlowSlab slab;
  traffic::FlowSlab::Scope scope(slab);
  transport::TcpConfig tcp;
  std::vector<std::uint32_t> in_flight;
  in_flight.reserve(kFlowInFlight);
  BenchResult r = measure(
      "flow_slab_churn", kFlowBatch,
      [&] {
        for (int i = 0; i < kFlowBatch / kFlowInFlight; ++i) {
          for (int j = 0; j < kFlowInFlight; ++j) {
            const std::uint32_t idx = slab.acquire();
            auto& slot = slab.at(idx);
            slot.flow_id = fuids.next();
            slot.size = 10'000;
            slot.src_addr = src.address();
            slot.dst_addr = dst.address();
            slot.sport = slab.checkout_port(src);
            slot.dport = slab.checkout_port(dst);
            slot.sink.emplace(dst, slot.dport, 0);
            slot.sender.emplace(src, dst.address(), slot.sport, slot.dport,
                                slot.flow_id, tcp,
                                transport::constant_dscp(0), 0, nullptr);
            in_flight.push_back(idx);
          }
          for (const auto idx : in_flight) slab.recycle(idx);
          in_flight.clear();
        }
      },
      min_secs);
  r.pool_fresh = slab.fresh_allocs();
  r.pool_reused = slab.reuses();
  r.pool_recycled = slab.recycles();
  return r;
}

// ------------------------------------------------------------- port path ----

/// Discards every delivered packet (recycling it into the pool).
class SinkNode final : public net::Node {
 public:
  void receive(net::PacketPtr, std::size_t) override {}
  [[nodiscard]] std::string_view name() const override { return "sink"; }
};

constexpr int kPortBatch = 256;

/// One port on its own simulator, on the heap: on the stack its distance to
/// the heap data it touches moves with address-space randomization, and an
/// A/A pair of identical rigs then read up to 6.7% apart. Built this way,
/// A/A pairs read within 0.6%.
struct PortRig {
  sim::Simulator sim;
  SinkNode sink;
  std::unique_ptr<net::Port> port;
};

/// A rig whose port sees whatever obs scopes are installed right now.
std::unique_ptr<PortRig> build_port_rig() {
  net::PortConfig cfg;
  cfg.rate_bps = 10'000'000'000ULL;
  auto rig = std::make_unique<PortRig>();
  rig->port = std::make_unique<net::Port>(
      rig->sim, "bench.p0", cfg, std::make_unique<net::FifoScheduler>(),
      std::make_unique<net::NullMarker>());
  rig->port->connect(&rig->sink, 0);
  return rig;
}

/// Full enqueue->schedule->serialize->deliver pipeline for one batch.
void run_port_batch(PortRig& rig) {
  for (int i = 0; i < kPortBatch; ++i) {
    auto p = net::make_packet();
    p->size = 1500;
    rig.port->enqueue(std::move(p), 0);
  }
  rig.sim.run();
}

/// The port pipeline with metrics off and on: the second rig is built
/// inside a MetricsRegistry scope, so its port resolves the registry's
/// handles at construction and publishes on every packet. The first is the
/// production default: metrics compiled in, no registry installed, every
/// publish site one never-taken branch. Batches alternate inside one
/// measure_pair() loop; the pair is reported, not gated.
PairResult bench_port_metrics(double min_secs) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  obs::MetricsRegistry registry;
  std::unique_ptr<PortRig> on;
  {
    obs::MetricsRegistry::Scope metrics_scope(registry);
    on = build_port_rig();
  }
  const std::unique_ptr<PortRig> off = build_port_rig();
  return measure_pair(
      "port_pipeline_obs_off", "port_pipeline_obs_on", kPortBatch,
      [&] { run_port_batch(*off); }, [&] { run_port_batch(*on); }, min_secs);
}

/// The same pair against the time-series sampler instead of the metrics
/// registry: the second rig is built inside a TimeSeries scope (so its port
/// registers a channel per queue) and its sampler is re-armed before every
/// batch. The paired on/off slowdown is the CI gate for the sampler's
/// enabled cost -- the amortized 100us tick events must stay within 5% of
/// the bare pipeline, as the channels do no work per packet.
PairResult bench_port_timeseries(double min_secs) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  obs::TimeSeriesConfig ts_cfg;
  ts_cfg.interval = 100 * sim::kMicrosecond;
  obs::TimeSeries series(ts_cfg);
  std::unique_ptr<PortRig> on;
  {
    obs::TimeSeries::Scope series_scope(series);
    on = build_port_rig();
  }
  const std::unique_ptr<PortRig> off = build_port_rig();
  return measure_pair(
      "port_pipeline_timeseries_off", "port_pipeline_timeseries_on",
      kPortBatch, [&] { run_port_batch(*off); },
      [&] {
        series.start(on->sim);  // the sampler stops when the sim drains
        run_port_batch(*on);
      },
      min_secs);
}

constexpr int kSamplerTicks = 256;

/// The sampler tick alone, over the channel count of the Fig. 6 star: nine
/// 4-queue switch ports plus nine host NICs, 45 channels. The first switch
/// port holds a backlog in all four queues behind a link so slow that its
/// head packet never finishes serializing, so 4 channels sample a nonzero
/// depth and 41 sit idle, as on a converge star. Rings are off, as in any
/// sampled run without --series-out. One op is one channel-sample.
BenchResult bench_sampler_tick(double min_secs) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  obs::TimeSeriesConfig ts_cfg;
  ts_cfg.interval = sim::kMicrosecond;
  ts_cfg.max_samples = 0;
  obs::TimeSeries series(ts_cfg);
  obs::TimeSeries::Scope series_scope(series);

  sim::Simulator s;
  SinkNode sink;
  std::vector<std::unique_ptr<net::Port>> ports;
  const auto add_port = [&](std::string name, const net::PortConfig& cfg) {
    ports.push_back(std::make_unique<net::Port>(
        s, std::move(name), cfg, std::make_unique<net::FifoScheduler>(),
        std::make_unique<net::NullMarker>()));
    ports.back()->connect(&sink, 0);
  };
  net::PortConfig egress;
  egress.rate_bps = 1'000;  // a 1500-byte packet serializes for 12 s
  egress.num_queues = 4;
  net::PortConfig nic;
  nic.rate_bps = 10'000'000'000ULL;
  for (int i = 0; i < 9; ++i) add_port("sw0.p" + std::to_string(i), egress);
  for (int i = 0; i < 9; ++i) add_port("h" + std::to_string(i) + ".nic", nic);
  for (std::size_t q = 0; q < egress.num_queues; ++q) {
    for (int k = 0; k < 2; ++k) {
      auto p = net::make_packet();
      p->size = 1500;
      ports.front()->enqueue(std::move(p), q);
    }
  }

  // The pending serialization keeps the sampler re-arming; each call runs
  // exactly kSamplerTicks ticks and nothing else.
  series.start(s);
  sim::Time until = 0;
  return measure(
      "sampler_tick", kSamplerTicks * series.num_channels(),
      [&] {
        until += kSamplerTicks * ts_cfg.interval;
        s.run(until);
      },
      min_secs);
}

// ------------------------------------------------- AQM decision / scheds ----

net::MarkContext make_ctx(sim::Time now) {
  return net::MarkContext{.now = now,
                          .queue = 0,
                          .queue_bytes = 20'000,
                          .port_bytes = 40'000,
                          .link_rate_bps = 10'000'000'000ULL};
}

constexpr int kDecisionBatch = 4096;

template <typename Marker, typename Decide>
BenchResult bench_decision(std::string label, Marker& m, Decide decide,
                           double min_secs) {
  auto p = net::make_packet();
  p->size = 1500;
  sim::Time now = 0;
  std::uint64_t sink = 0;
  BenchResult r = measure(
      std::move(label), kDecisionBatch,
      [&] {
        for (int i = 0; i < kDecisionBatch; ++i) {
          now += 1'200;
          p->enqueue_ts = now - (now % 200'000);
          sink += decide(m, *p, now) ? 1 : 0;
        }
      },
      min_secs);
  if (sink == ~0ULL) std::abort();
  return r;
}

constexpr int kSchedRounds = 64;
constexpr std::size_t kSchedQueues = 8;

template <typename MakeSched>
BenchResult bench_sched(std::string label, MakeSched make, double min_secs) {
  // One port, 8 queues, continuous backlog: enqueue+select+dequeue.
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  return measure(
      std::move(label), kSchedRounds * kSchedQueues,
      [&] {
        std::vector<net::PacketQueue> queues(kSchedQueues);
        auto sched = make();
        sched->bind(&queues, 10'000'000'000ULL);
        for (int round = 0; round < kSchedRounds; ++round) {
          for (std::size_t q = 0; q < kSchedQueues; ++q) {
            auto p = net::make_packet();
            p->size = 1500;
            net::Packet& ref = *p;
            queues[q].push(std::move(p), round * 10'000);
            sched->on_enqueue(q, ref, round * 10'000);
          }
        }
        std::uint64_t sink = 0;
        for (int i = 0; i < kSchedRounds * static_cast<int>(kSchedQueues);
             ++i) {
          const auto q = sched->select(i * 1'200);
          auto p = queues[q].pop(i * 1'200);
          sched->on_dequeue(q, *p, i * 1'200);
          sink += p->uid;
        }
        if (sink == 0) std::abort();
      },
      min_secs);
}

// -------------------------------------------------------------- reporting ----

void write_json(const std::vector<BenchResult>& results, double wall_ms,
                const std::string& path) {
  std::uint64_t total_ops = 0;
  for (const auto& r : results) total_ops += r.ops;

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("tcn-bench-1");
  w.key("name").value("micro");
  w.key("jobs").value(std::size_t{1});
  w.key("wall_ms").value(wall_ms);
  w.key("totals").begin_object();
  w.key("runs").value(results.size());
  w.key("completed").value(results.size());
  w.key("failed").value(std::size_t{0});
  w.key("skipped").value(std::size_t{0});
  w.key("events").value(total_ops);
  w.end_object();
  w.key("runs").begin_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    w.begin_object();
    w.key("index").value(i);
    w.key("group").value("micro");
    w.key("label").value(r.label);
    w.key("ok").value(true);
    w.key("skipped").value(false);
    w.key("error").value("");
    w.key("counters").begin_object();
    w.key("pool_fresh").value(r.pool_fresh);
    w.key("pool_reused").value(r.pool_reused);
    w.key("pool_recycled").value(r.pool_recycled);
    w.end_object();
    w.key("events").value(r.ops);
    w.key("wall_ms").value(r.secs * 1e3);
    w.key("events_per_sec").value(r.ops_per_sec());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::string doc = w.str();
  doc += '\n';
  obs::write_text_file(path, doc);
  if (path != "-") std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double min_secs = 0.3;
  bool gate = false;
  const runner::FlagTable table = {
      {"--json", "PATH", "write the tcn-bench-1 document (\"-\" = stdout)",
       runner::path_setter(json_path)},
      {"--min-time", "SECS", "measured wall time per benchmark (default 0.3)",
       runner::number_setter(min_secs)},
      {"--gate", "",
       "exit 1 unless calendar/heap >= 1.5x and the\n"
       "time-series sampler overhead <= 5%",
       runner::switch_setter(gate)}};
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (runner::wants_help(args)) {
    std::printf("usage: micro_core [flags]\n%s",
                runner::flags_usage(table).c_str());
    return 0;
  }
  try {
    runner::parse_flags(table, args);
    if (!(min_secs > 0)) {
      throw std::invalid_argument("--min-time: must be positive");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "micro_core: %s\n", e.what());
    return 2;
  }

  const auto t0 = Clock::now();
  std::vector<BenchResult> results;
  results.push_back(bench_event_inline(min_secs));
  results.push_back(
      bench_event_queue<sim::CalendarQueue>("event_path_calendar", min_secs));
  results.push_back(
      bench_event_queue<sim::BinaryHeapQueue>("event_path_heap", min_secs));
  results.push_back(bench_timer_chain(min_secs));
  results.push_back(bench_packet_pooled(min_secs));
  results.push_back(bench_flow_slab(min_secs));
  const PairResult metrics = bench_port_metrics(min_secs);
  results.push_back(metrics.a);
  results.push_back(metrics.b);
  const PairResult series = bench_port_timeseries(min_secs);
  results.push_back(series.a);
  results.push_back(series.b);
  results.push_back(bench_sampler_tick(min_secs));

  {
    aqm::TcnMarker tcn(100 * sim::kMicrosecond);
    results.push_back(bench_decision(
        "tcn_decision", tcn,
        [](auto& m, net::Packet& p, sim::Time now) {
          return m.on_dequeue(make_ctx(now), p);
        },
        min_secs));
  }
  {
    aqm::CodelMarker codel(50 * sim::kMicrosecond, 1'000 * sim::kMicrosecond);
    results.push_back(bench_decision(
        "codel_decision", codel,
        [](auto& m, net::Packet& p, sim::Time now) {
          return m.on_dequeue(make_ctx(now), p);
        },
        min_secs));
  }
  {
    aqm::RedEcnMarker red(30'000, aqm::RedScope::kPerQueue);
    results.push_back(bench_decision(
        "red_decision", red,
        [](auto& m, net::Packet& p, sim::Time) {
          return m.on_enqueue(make_ctx(0), p);
        },
        min_secs));
  }
  results.push_back(bench_sched(
      "dwrr_dequeue",
      [] {
        return std::make_unique<sched::DwrrScheduler>(
            std::vector<std::uint64_t>(kSchedQueues, 1500));
      },
      min_secs));
  results.push_back(bench_sched(
      "wfq_dequeue",
      [] {
        return std::make_unique<sched::WfqScheduler>(
            std::vector<double>(kSchedQueues, 1.0));
      },
      min_secs));

  const double wall_ms = seconds_since(t0) * 1e3;

  std::printf("%-32s %14s %12s\n", "benchmark", "ops/sec", "ops");
  for (const auto& r : results) {
    std::printf("%-32s %14.0f %12llu\n", r.label.c_str(), r.ops_per_sec(),
                static_cast<unsigned long long>(r.ops));
  }
  const auto find = [&](const char* label) -> const BenchResult* {
    for (const auto& r : results)
      if (r.label == label) return &r;
    return nullptr;
  };
  std::printf("port path metrics overhead (enabled vs disabled):     %.1f%%\n",
              (metrics.slowdown - 1.0) * 100.0);
  const double timeseries_overhead = series.slowdown - 1.0;
  std::printf("port path time-series overhead (sampler on vs off):   %.1f%%\n",
              timeseries_overhead * 100.0);
  if (const auto* tick = find("sampler_tick");
      tick != nullptr && tick->ops_per_sec() > 0) {
    std::printf("sampler tick cost per channel-sample:                 %.1f ns\n",
                1e9 / tick->ops_per_sec());
  }
  const auto* eq_cal = find("event_path_calendar");
  const auto* eq_heap = find("event_path_heap");
  double event_queue_ratio = 0.0;
  if (eq_cal && eq_heap && eq_heap->ops_per_sec() > 0) {
    event_queue_ratio = eq_cal->ops_per_sec() / eq_heap->ops_per_sec();
    std::printf("event queue speedup (calendar vs binary heap):        %.2fx\n",
                event_queue_ratio);
  }

  if (!json_path.empty()) {
    try {
      write_json(results, wall_ms, json_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "micro_core: --json: %s\n", e.what());
      return 1;
    }
  }

  if (gate) {
    // CI acceptance: the calendar queue must beat the in-binary heap
    // baseline by >= 1.5x on the event path (same driver, same entries --
    // pure container structure). The metrics pair is reported above but
    // not gated: enabled metrics publish on every packet by design, and no
    // budget has been set for that cost.
    constexpr double kEventQueueGate = 1.5;
    if (event_queue_ratio < kEventQueueGate) {
      std::fprintf(stderr,
                   "GATE FAILED: event_path_calendar/event_path_heap = %.2fx "
                   "< %.2fx\n",
                   event_queue_ratio, kEventQueueGate);
      return 1;
    }
    std::printf("gate ok: event queue ratio %.2fx >= %.2fx\n",
                event_queue_ratio, kEventQueueGate);
    // Enabled-sampler acceptance: the amortized tick events must cost <= 5%
    // of the bare port pipeline. The pair shares one batch loop and differs
    // only in the installed scope, so the ratio isolates the sampler (same
    // reasoning as the event gate), and its calls alternate, so host drift
    // cannot move it.
    constexpr double kTimeSeriesOverheadGate = 0.05;
    if (timeseries_overhead > kTimeSeriesOverheadGate) {
      std::fprintf(stderr,
                   "GATE FAILED: time-series sampler overhead %.1f%% > "
                   "%.0f%%\n",
                   timeseries_overhead * 100.0,
                   kTimeSeriesOverheadGate * 100.0);
      return 1;
    }
    std::printf("gate ok: time-series sampler overhead %.1f%% <= %.0f%%\n",
                timeseries_overhead * 100.0, kTimeSeriesOverheadGate * 100.0);
  }
  return 0;
}
