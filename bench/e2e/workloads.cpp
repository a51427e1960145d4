#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/experiment.hpp"
#include "figures.hpp"
#include "net/packet.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "pias/pias.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"
#include "traffic/engine.hpp"
#include "traffic/flow_slab.hpp"
#include "transport/connection_pool.hpp"
#include "transport/flow.hpp"
#include "workload/distributions.hpp"
#include "workload/incast.hpp"
#include "workload/traffic_gen.hpp"

namespace tcn::e2e {
namespace {

constexpr std::string_view kStar = "star_dwrr_tcn";
constexpr std::string_view kLeafSpine = "leafspine_spdwrr_tcn";
constexpr std::string_view kOpenLoop = "openloop_star_mix";
constexpr std::string_view kIncast = "incast_fifo_tcn";
constexpr std::string_view kStarObs = "star_dwrr_tcn_obs";

// A hung simulation becomes a recorded failure instead of a stuck run.
constexpr double kWallBudgetMs = 120'000.0;

// experiment.cpp's guard for open-loop runs with no pending budget of their
// own; the traced rebuild arms the same one. It never trips at load 0.9.
constexpr std::size_t kOpenLoopPendingBudget = 2'000'000;

// The star workloads measure a fixed window of simulated time at steady
// load; the closed-loop generator's flow cap is set beyond any window.
constexpr std::size_t kNoFlowCap = 100'000'000;

constexpr const char* kOpenLoopTraffic =
    "poisson:web:websearch:0.7;mmpp:batch:datamining:0.3:-:4:0.25:10";

constexpr sim::Time kSampleInterval = 100 * sim::kMicrosecond;

// Simulated work per run, sized for about 1 s per run on a 4-core x86 box
// at full size and milliseconds at tiny size.
struct Sizes {
  double star_window_s;
  double openloop_window_s;
  std::size_t leafspine_flows;
  double leafspine_window_s;
  std::size_t incast_queries;
};
constexpr Sizes kFullSizes{15.0, 15.0, 160, 0.08, 300};
constexpr Sizes kTinySizes{1.0, 1.0, 28, 0.01, 10};

const Sizes& sizes(Size size) {
  return size == Size::kFull ? kFullSizes : kTinySizes;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void add_metrics(const obs::MetricsSnapshot& snap, SimStats& s) {
  s.instruments =
      snap.counters.size() + snap.gauges.size() + snap.histograms.size();
  s.metrics_digest = fnv1a(obs::metrics_to_json(snap));
}

/// Counters every composition reads off the simulator, pool and switches.
void add_engine_counters(const sim::Simulator& sim,
                         const net::PacketPool& pool, topo::Network& network,
                         SimStats& s) {
  s.events = sim.events_executed();
  s.sim_end_ns = sim.now();
  s.pool_fresh = pool.fresh_allocs();
  s.pool_reused = pool.reuses();
  s.pool_recycled = pool.recycles();
  s.peak_pending = sim.peak_pending();
  s.calendar_resizes = sim.calendar_resizes();
  for (std::size_t i = 0; i < network.num_switches(); ++i) {
    net::Switch& sw = network.switch_at(i);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      s.switch_drops += sw.port(p).counters().drops;
      s.switch_marks += sw.port(p).counters().marks;
      s.sched_drops += sw.port(p).counters().sched_drops;
    }
  }
}

/// `f` run inside a `kind` span when tracing, unchanged otherwise.
template <typename R, typename... A>
std::function<R(A...)> in_span(std::function<R(A...)> f, Tracer* tracer,
                               Span kind) {
  if (tracer == nullptr) return f;
  return [f = std::move(f), tracer, kind](A... a) -> R {
    return tracer->span(kind, [&]() -> R { return f(std::forward<A>(a)...); });
  };
}

/// The leaf-spine flow list. With the Fig. 4 CDFs a few flows of hundreds
/// of MB carry most bytes, so flows drawn i.i.d. make the work of a run
/// swing by 2x from seed to seed. Here each service's sizes are instead the
/// CDF's quantiles at (i + 0.5) / n, so every seed carries the same bytes;
/// the seed draws their order, the arrival times (Poisson at the configured
/// load of the hosts' capacity) and the host pairs. A flow's service is
/// (src + dst) % services, the pairing AllToAllGenerator uses, so PIAS and
/// DSCP treat it as Fig. 10 does.
void write_leafspine_trace(const std::string& path,
                           const core::FctExperiment& cfg, std::size_t flows,
                           std::uint64_t seed) {
  const std::uint64_t hosts =
      cfg.leaf_spine.num_leaves * cfg.leaf_spine.hosts_per_leaf;
  const std::uint32_t services = cfg.num_services;
  sim::Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> by_service(services);
  double total_bytes = 0.0;
  for (std::uint32_t s = 0; s < services; ++s) {
    const sim::Ecdf& cdf = workload::distribution(
        cfg.service_workloads[s % cfg.service_workloads.size()]);
    const std::size_t n = flows / services + (s < flows % services ? 1 : 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
      const auto bytes = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(cdf.quantile(q))));
      by_service[s].push_back(bytes);
      total_bytes += static_cast<double>(bytes);
    }
    std::shuffle(by_service[s].begin(), by_service[s].end(), rng.engine());
  }
  const double capacity_Bps =
      static_cast<double>(hosts) * cfg.load *
      static_cast<double>(cfg.leaf_spine.link_rate_bps) / 8.0;
  const double mean_gap_s =
      total_bytes / static_cast<double>(flows) / capacity_Bps;

  std::ofstream out(path, std::ios::trunc);
  double t_s = 0.0;
  for (std::size_t i = 0; i < flows; ++i) {
    const auto service = static_cast<std::uint32_t>(i % services);
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    do {
      src = rng.uniform_int(0, hosts - 1);
      dst = rng.uniform_int(0, hosts - 2);
      if (dst >= src) ++dst;
    } while ((src + dst) % services != service);
    t_s += rng.exponential(mean_gap_s);
    out << "{\"t_s\": " << obs::format_double(t_s) << ", \"src\": " << src
        << ", \"dst\": " << dst << ", \"size\": " << by_service[service].back()
        << ", \"service\": " << service << "}\n";
    by_service[service].pop_back();
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

void set_obs(core::FctExperiment& cfg, bool on) {
  cfg.collect_metrics = on;
  cfg.timeseries.interval = on ? kSampleInterval : 0;
}

core::FctExperiment fct_config(std::string_view name, std::uint64_t seed,
                               Size size) {
  const Sizes& sz = sizes(size);
  core::FctExperiment cfg;
  if (name == kLeafSpine) {
    cfg = bench::fig10().base;
    cfg.time_limit = sim::from_seconds(sz.leafspine_window_s);
  } else {
    cfg = bench::fig06().base;
    cfg.time_limit = sim::from_seconds(
        name == kOpenLoop ? sz.openloop_window_s : sz.star_window_s);
  }
  cfg.scheme = core::Scheme::kTcn;
  cfg.load = 0.9;
  cfg.seed = seed;
  cfg.params.seed = seed;
  cfg.num_flows = kNoFlowCap;
  if (name == kOpenLoop) {
    cfg.traffic = traffic::parse_traffic_spec(kOpenLoopTraffic);
    cfg.num_flows = 0;  // unlimited arrivals: the window ends the run
  }
  set_obs(cfg, name == kStarObs);
  // The budget is armed; the flight recorder a budget would otherwise attach
  // to every port stays off, so ports carry no observer.
  cfg.wall_budget_ms = kWallBudgetMs;
  cfg.flight_recorder_depth = 0;
  return cfg;
}

SimStats from_report(const core::FctReport& r) {
  SimStats s;
  s.events = r.events;
  s.sim_end_ns = r.sim_end;
  s.flows_started = r.flows_started;
  s.flows_completed = r.flows_completed;
  s.switch_drops = r.switch_drops;
  s.switch_marks = r.switch_marks;
  s.sched_drops = r.sched_drops;
  s.pool_fresh = r.pool_fresh;
  s.pool_reused = r.pool_reused;
  s.pool_recycled = r.pool_recycled;
  s.peak_pending = r.sim_peak_pending;
  s.calendar_resizes = r.sim_calendar_resizes;
  s.fct = r.summary;
  s.traffic_arrivals = r.traffic_arrivals;
  s.traffic_active_peak = r.traffic_active_peak;
  s.slab_fresh = r.slab_fresh;
  s.slab_reused = r.slab_reused;
  s.series_ticks = r.series_ticks;
  if (r.metrics_collected) add_metrics(r.metrics, s);
  return s;
}

/// The traced rebuild of core::run_fct_experiment, restricted to what the
/// FCT workloads use. Every object is created in the same order, so the run
/// schedules the same events in the same sequence.
RunOutput run_fct_traced(const core::FctExperiment& cfg, Tracer& tracer) {
  if (!cfg.faults.empty() || cfg.check_invariants || cfg.fail_on_invariant ||
      !cfg.metrics_out.empty() || !cfg.trace_out.empty() ||
      !cfg.series_out.empty() || cfg.extra_observer != nullptr ||
      cfg.flight_recorder_depth != 0 || cfg.num_services == 0 ||
      cfg.service_workloads.empty()) {
    throw std::invalid_argument(
        "traced run: configuration uses a feature the rebuild does not "
        "mirror");
  }
  RunOutput out;
  SimStats& s = out.stats;
  const bool open_loop = cfg.traffic.enabled();

  net::PacketUidScope uid_scope;
  traffic::FlowUidScope flow_uid_scope;
  net::PacketPool packet_pool;
  net::PacketPool::Scope packet_pool_scope(packet_pool);
  obs::MetricsRegistry registry;
  std::optional<obs::MetricsRegistry::Scope> metrics_scope;
  if (cfg.collect_metrics) metrics_scope.emplace(registry);
  std::optional<obs::TimeSeries> series;
  std::optional<obs::TimeSeries::Scope> series_scope;
  if (cfg.timeseries.enabled()) {
    series.emplace(cfg.timeseries);
    series_scope.emplace(*series);
  }

  const core::SchedKind kind = cfg.sched.kind;
  const bool hybrid =
      kind == core::SchedKind::kSpDwrr || kind == core::SchedKind::kSpWfq;
  const bool rank_priority = (kind == core::SchedKind::kSpPifo ||
                              kind == core::SchedKind::kAifo) &&
                             cfg.sched.rank == core::RankProgram::kPriority;
  const std::size_t num_sp = hybrid || rank_priority ? cfg.sched.num_sp : 0;
  const std::size_t num_service_queues =
      cfg.num_service_queues > 0 ? cfg.num_service_queues : cfg.num_services;
  core::SchedConfig sched = cfg.sched;
  sched.num_queues = num_sp + num_service_queues;

  std::vector<std::unique_ptr<TimedNode>> timed_nodes;
  sim::Simulator sim;
  const auto sched_factory =
      timed_factory(core::make_scheduler_factory(sched), tracer);
  const auto marker_factory = timed_factory(
      core::make_marker_factory(cfg.scheme, cfg.params), tracer);
  const std::int64_t build_start = clock_ns();
  topo::Network network = [&] {
    if (cfg.topology == core::FctExperiment::Topology::kStarConverge) {
      topo::StarConfig star = cfg.star;
      star.num_queues = sched.num_queues;
      return topo::build_star(sim, star, sched_factory, marker_factory);
    }
    topo::LeafSpineConfig ls = cfg.leaf_spine;
    ls.num_queues = sched.num_queues;
    return topo::build_leaf_spine(sim, ls, sched_factory, marker_factory);
  }();
  out.build_s = static_cast<double>(clock_ns() - build_start) * 1e-9;
  wrap_switches(network, tracer, timed_nodes);

  stats::FctCollector fct;
  stats::StreamingFctCollector streaming_fct;
  std::size_t flows_completed = 0;
  const auto on_flow_done = [&](const transport::FlowResult& r) {
    tracer.span(Span::kStats, [&] {
      if (open_loop) {
        streaming_fct.add(r);
      } else {
        fct.add(r);
      }
      ++flows_completed;
    });
  };
  transport::FlowManager fm(on_flow_done);
  transport::ConnectionPool pool(on_flow_done);
  const workload::FlowLauncher launcher =
      cfg.persistent_connections
          ? workload::FlowLauncher([&](net::Host& src, net::Host& dst,
                                       transport::FlowSpec spec) {
              tracer.span(Span::kStart,
                          [&] { pool.submit(src, dst, std::move(spec)); });
            })
          : workload::FlowLauncher([&](net::Host& src, net::Host& dst,
                                       transport::FlowSpec spec) {
              tracer.span(Span::kStart,
                          [&] { fm.start_flow(src, dst, std::move(spec)); });
            });

  sim::Rng queue_rng(cfg.seed ^ 0x517cc1b727220a95ULL);
  auto spec_fn = [&](std::uint32_t service,
                     std::uint64_t size) -> transport::FlowSpec {
    transport::FlowSpec spec;
    spec.size = size;
    spec.service = service;
    spec.tcp = cfg.tcp;
    const std::uint8_t service_dscp = static_cast<std::uint8_t>(
        num_sp + (num_service_queues == cfg.num_services
                      ? service % num_service_queues
                      : queue_rng.uniform_int(0, num_service_queues - 1)));
    if (cfg.pias) {
      spec.data_dscp =
          pias::two_priority(0, service_dscp, cfg.pias_threshold);
      spec.ack_dscp = 0;
    } else {
      spec.data_dscp = transport::constant_dscp(service_dscp);
      spec.ack_dscp = service_dscp;
    }
    return spec;
  };

  workload::GenConfig gen_cfg;
  gen_cfg.load = cfg.load;
  gen_cfg.num_flows = cfg.num_flows;
  gen_cfg.num_services = cfg.num_services;
  gen_cfg.seed = cfg.seed;

  std::unique_ptr<workload::ConvergeGenerator> converge;
  std::unique_ptr<workload::AllToAllGenerator> all2all;
  std::optional<traffic::FlowSlab> flow_slab;
  std::optional<traffic::FlowSlab::Scope> flow_slab_scope;
  std::unique_ptr<traffic::TrafficEngine> engine;

  if (open_loop) {
    flow_slab.emplace();
    flow_slab_scope.emplace(*flow_slab);
    traffic::EngineConfig ecfg;
    ecfg.load = cfg.load;
    ecfg.max_flows = cfg.num_flows;
    ecfg.seed = cfg.seed;
    ecfg.converge =
        cfg.topology == core::FctExperiment::Topology::kStarConverge;
    // The engine starts its flows itself; the SpecFn it calls per arrival is
    // the one flow-start hook reachable from outside.
    engine = std::make_unique<traffic::TrafficEngine>(
        sim, network.host_ptrs(), cfg.traffic, ecfg,
        [&](std::uint32_t service, std::uint64_t size) {
          return tracer.span(Span::kStart,
                             [&] { return spec_fn(service, size); });
        },
        on_flow_done);
    engine->start();
  } else if (cfg.topology == core::FctExperiment::Topology::kStarConverge) {
    std::vector<net::Host*> senders;
    for (std::size_t i = 1; i < network.num_hosts(); ++i) {
      senders.push_back(&network.host(i));
    }
    converge = std::make_unique<workload::ConvergeGenerator>(
        sim, launcher, std::move(senders), &network.host(0),
        &workload::distribution(cfg.service_workloads[0]), gen_cfg, spec_fn);
    converge->start();
  } else {
    std::vector<const sim::Ecdf*> dists;
    for (std::uint32_t i = 0; i < cfg.num_services; ++i) {
      dists.push_back(&workload::distribution(
          cfg.service_workloads[i % cfg.service_workloads.size()]));
    }
    const std::uint32_t num_services = cfg.num_services;
    all2all = std::make_unique<workload::AllToAllGenerator>(
        sim, launcher, network.host_ptrs(), std::move(dists), gen_cfg,
        [num_services](std::size_t src, std::size_t dst) {
          return static_cast<std::uint32_t>((src + dst) % num_services);
        },
        spec_fn);
    all2all->start();
  }

  if (series) series->start(sim);

  sim::RunBudget budget;
  budget.max_wall_ms = cfg.wall_budget_ms;
  budget.max_events = cfg.event_budget;
  budget.max_sim_time = cfg.sim_time_budget;
  budget.max_pending = cfg.pending_event_budget;
  if (open_loop && budget.max_pending == 0) {
    budget.max_pending = kOpenLoopPendingBudget;
  }
  if (budget.any()) sim.set_budget(budget);
  sim.run(cfg.time_limit > 0 ? cfg.time_limit : sim::kTimeMax);

  s.fct = open_loop ? streaming_fct.summary() : fct.summary();
  s.flows_completed = flows_completed;
  if (open_loop) {
    s.flows_started = engine->arrivals();
    s.traffic_arrivals = engine->arrivals();
    s.traffic_active_peak = engine->active_peak();
    s.slab_fresh = flow_slab->fresh_allocs();
    s.slab_reused = flow_slab->reuses();
    out.connections = engine->arrivals();
  } else if (cfg.persistent_connections) {
    s.flows_started = pool.messages_submitted();
    out.connections = pool.connections_created();
  } else {
    s.flows_started = fm.flows_started();
    out.connections = fm.flows_started();
  }
  add_engine_counters(sim, packet_pool, network, s);
  if (series) {
    s.series_ticks = series->ticks();
    obs::StabilityResult stability;
    if (const obs::TimeSeries::Channel* dom = series->dominant_channel()) {
      stability = dom->analyzer().result(dom->cap_bytes());
    }
    if (cfg.collect_metrics) {
      registry.gauge("stability/oscillation_score")
          .set(stability.oscillation_score);
      registry.gauge("stability/sojourn_cv").set(stability.sojourn_cv);
      registry.gauge("stability/mark_burstiness")
          .set(stability.mark_burstiness);
    }
  }
  if (cfg.collect_metrics) add_metrics(registry.snapshot(), s);
  return out;
}

/// Synchronized fan-in over a 10G star with one FIFO queue, composed the way
/// bench/ablation_incast.cpp does it. Serves both as the product path
/// (tracer null) and as the traced rebuild.
RunOutput run_incast(std::uint64_t seed, Size size, Mode mode,
                     Tracer* tracer) {
  RunOutput out;
  SimStats& s = out.stats;
  const bool obs_on = mode == Mode::kObsToggled;

  net::PacketUidScope uid_scope;
  net::PacketPool packet_pool;
  net::PacketPool::Scope packet_pool_scope(packet_pool);
  obs::MetricsRegistry registry;
  std::optional<obs::MetricsRegistry::Scope> metrics_scope;
  std::optional<obs::TimeSeries> series;
  std::optional<obs::TimeSeries::Scope> series_scope;
  if (obs_on) {
    metrics_scope.emplace(registry);
    obs::TimeSeriesConfig ts;
    ts.interval = kSampleInterval;
    series.emplace(ts);
    series_scope.emplace(*series);
  }

  std::vector<std::unique_ptr<TimedNode>> timed_nodes;
  sim::Simulator sim;
  core::SchemeParams params;
  params.rtt_lambda = 100 * sim::kMicrosecond;
  params.seed = seed;
  core::SchedConfig sched;
  sched.kind = core::SchedKind::kFifo;
  sched.num_queues = 1;
  topo::StarConfig star;
  star.num_hosts = 33;  // host 0 aggregates, 32 workers respond
  star.link_rate_bps = 10'000'000'000ULL;
  star.num_queues = 1;
  star.buffer_bytes = 300'000;
  star.host_delay =
      topo::star_host_delay_for_rtt(100 * sim::kMicrosecond, star.link_prop);
  topo::SchedulerFactory sched_factory = core::make_scheduler_factory(sched);
  topo::MarkerFactory marker_factory =
      core::make_marker_factory(core::Scheme::kTcn, params);
  if (tracer != nullptr) {
    sched_factory = timed_factory(std::move(sched_factory), *tracer);
    marker_factory = timed_factory(std::move(marker_factory), *tracer);
  }
  const std::int64_t build_start = clock_ns();
  topo::Network network =
      topo::build_star(sim, star, sched_factory, marker_factory);
  out.build_s = static_cast<double>(clock_ns() - build_start) * 1e-9;
  if (tracer != nullptr) wrap_switches(network, *tracer, timed_nodes);

  stats::FctCollector fct;
  std::size_t flows_completed = 0;
  transport::FlowManager fm(in_span(
      transport::FlowManager::CompletionCb(
          [&](const transport::FlowResult& r) {
            fct.add(r);
            ++flows_completed;
          }),
      tracer, Span::kStats));
  const workload::FlowLauncher launch = in_span(
      workload::FlowLauncher([&fm](net::Host& src, net::Host& dst,
                                   transport::FlowSpec spec) {
        fm.start_flow(src, dst, std::move(spec));
      }),
      tracer, Span::kStart);
  std::vector<net::Host*> servers;
  for (std::size_t i = 1; i < network.num_hosts(); ++i) {
    servers.push_back(&network.host(i));
  }
  workload::IncastConfig icfg;
  icfg.fanout = 32;
  icfg.response_bytes = 128'000;
  icfg.num_queries = sizes(size).incast_queries;
  icfg.interval = 5 * sim::kMillisecond;
  icfg.seed = seed;
  workload::IncastGenerator gen(
      sim, launch, servers, &network.host(0), icfg,
      [](std::uint32_t, std::uint64_t bytes) {
        transport::FlowSpec spec;
        spec.size = bytes;
        spec.tcp.cc = transport::CongestionControl::kDctcp;
        spec.tcp.init_cwnd_pkts = 10;
        spec.tcp.rto_min = 5 * sim::kMillisecond;
        spec.tcp.rto_init = 5 * sim::kMillisecond;
        return spec;
      },
      nullptr);
  gen.start();
  if (series) series->start(sim);

  sim::RunBudget budget;
  budget.max_wall_ms = kWallBudgetMs;
  sim.set_budget(budget);
  // Queries stop arriving after num_queries intervals; one more second of
  // simulated time covers the slowest response's retransmissions.
  const sim::Time limit =
      mode == Mode::kSetupOnly
          ? 1
          : static_cast<sim::Time>(icfg.num_queries + 1) * icfg.interval +
                sim::kSecond;
  sim.run(limit);

  s.flows_started = fm.flows_started();
  s.flows_completed = flows_completed;
  s.fct = fct.summary();
  out.connections = fm.flows_started();
  add_engine_counters(sim, packet_pool, network, s);
  if (series) s.series_ticks = series->ticks();
  if (obs_on) add_metrics(registry.snapshot(), s);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {kStar,
       "Fig. 6 star, DWRR x4 + TCN: small working set, so the per-packet "
       "port path (net, sched, aqm) has its largest share of time"},
      {kLeafSpine,
       "Fig. 10 leaf-spine, SP/DWRR + PIAS + TCN, 144 hosts: 40x the ports, "
       "a large pending set and three-hop paths; the memory-locality case"},
      {kOpenLoop,
       "Open-loop Poisson + MMPP tenants on the Fig. 6 star: runs the "
       "traffic engine, flow-slab recycling and streaming FCT collection"},
      {kIncast,
       "32-way incast, FIFO + TCN on a 10G star: synchronized bursts, drops "
       "and ~10k cold connections; one queue, so scheduler changes should "
       "not move it"},
      {kStarObs,
       "star_dwrr_tcn with metrics and 100us time-series sampling on: the "
       "only workload where obs does work"},
  };
  return list;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string first_difference(const SimStats& a, const SimStats& b) {
  std::string diff;
  const auto check = [&](const char* name, auto x, auto y) {
    if (diff.empty() && x != y) {
      diff = std::string(name) + ": " + std::to_string(x) + " vs " +
             std::to_string(y);
    }
  };
  check("events", a.events, b.events);
  check("sim_end_ns", a.sim_end_ns, b.sim_end_ns);
  check("flows_started", a.flows_started, b.flows_started);
  check("flows_completed", a.flows_completed, b.flows_completed);
  check("switch_drops", a.switch_drops, b.switch_drops);
  check("switch_marks", a.switch_marks, b.switch_marks);
  check("sched_drops", a.sched_drops, b.sched_drops);
  check("pool_fresh", a.pool_fresh, b.pool_fresh);
  check("pool_reused", a.pool_reused, b.pool_reused);
  check("pool_recycled", a.pool_recycled, b.pool_recycled);
  check("peak_pending", a.peak_pending, b.peak_pending);
  check("calendar_resizes", a.calendar_resizes, b.calendar_resizes);
  check("fct.count", a.fct.count, b.fct.count);
  check("fct.avg_all_us", a.fct.avg_all_us, b.fct.avg_all_us);
  check("fct.small_count", a.fct.small_count, b.fct.small_count);
  check("fct.avg_small_us", a.fct.avg_small_us, b.fct.avg_small_us);
  check("fct.p99_small_us", a.fct.p99_small_us, b.fct.p99_small_us);
  check("fct.large_count", a.fct.large_count, b.fct.large_count);
  check("fct.avg_large_us", a.fct.avg_large_us, b.fct.avg_large_us);
  check("fct.timeouts", a.fct.timeouts, b.fct.timeouts);
  check("fct.small_timeouts", a.fct.small_timeouts, b.fct.small_timeouts);
  check("traffic_arrivals", a.traffic_arrivals, b.traffic_arrivals);
  check("traffic_active_peak", a.traffic_active_peak, b.traffic_active_peak);
  check("slab_fresh", a.slab_fresh, b.slab_fresh);
  check("slab_reused", a.slab_reused, b.slab_reused);
  check("series_ticks", a.series_ticks, b.series_ticks);
  check("instruments", a.instruments, b.instruments);
  check("metrics_digest", a.metrics_digest, b.metrics_digest);
  return diff;
}

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t k) {
  return mix64(seed ^ mix64(k + 1));
}

Input::Input(std::string_view workload, std::uint64_t seed, Size size)
    : workload_(workload), seed_(seed), size_(size) {
  if (find_workload(workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + workload_ + "'");
  }
  if (workload == kLeafSpine) {
    const auto dir =
        std::filesystem::read_symlink("/proc/self/exe").parent_path();
    trace_path_ = (dir / ("leafspine-flows-" + std::to_string(::getpid()) +
                          "-" + std::to_string(seed) + ".jsonl"))
                      .string();
    write_leafspine_trace(trace_path_, fct_config(workload, seed, size),
                          sizes(size).leafspine_flows, seed);
  }
}

Input::~Input() {
  if (!trace_path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(trace_path_, ec);
  }
}

RunOutput Input::run(Mode mode, Tracer* tracer) const {
  if (workload_ == kIncast) return run_incast(seed_, size_, mode, tracer);
  core::FctExperiment cfg = fct_config(workload_, seed_, size_);
  if (!trace_path_.empty()) cfg.traffic.replay_path = trace_path_;
  if (mode == Mode::kSetupOnly) cfg.time_limit = 1;
  if (mode == Mode::kObsToggled) set_obs(cfg, !cfg.collect_metrics);
  if (tracer != nullptr) return run_fct_traced(cfg, *tracer);
  RunOutput out;
  out.stats = from_report(core::run_fct_experiment(cfg));
  return out;
}

}  // namespace tcn::e2e
