#include "core/experiment.hpp"

#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "fault/fault.hpp"
#include "net/invariant.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "obs/export.hpp"
#include "pias/pias.hpp"
#include "sim/simulator.hpp"
#include "stats/tracer.hpp"
#include "topo/network.hpp"
#include "traffic/engine.hpp"
#include "traffic/flow_slab.hpp"
#include "transport/connection_pool.hpp"
#include "transport/flow.hpp"
#include "workload/traffic_gen.hpp"

namespace tcn::core {
namespace {

bool is_hybrid(SchedKind k) {
  return k == SchedKind::kSpDwrr || k == SchedKind::kSpWfq;
}

// Open-loop runs at load > 1 grow the active-flow population (and with it
// the pending-event set, one armed retransmission timer per active sender)
// without bound. When the user armed no pending budget of their own, this
// default keeps overload a classified kOomGuard failure instead of an OOM.
// Generous enough that any load <= 1 scenario never comes near it.
constexpr std::size_t kOpenLoopDefaultPendingBudget = 2'000'000;

}  // namespace

FctReport run_fct_experiment(const FctExperiment& cfg) {
  if (cfg.num_services == 0 || cfg.service_workloads.empty()) {
    throw std::invalid_argument("FctExperiment: services misconfigured");
  }

  const bool open_loop = cfg.traffic.enabled();

  // Per-run packet uids: every experiment numbers its packets 1, 2, 3, ...
  // so traces are reproducible under the parallel sweep runner no matter
  // which worker thread or in what order this run executes.
  net::PacketUidScope uid_scope;

  // Per-run flow uids, the flow-granularity sibling: the open-loop engine
  // numbers its flows from here, so jobs=1 vs jobs=N sweeps with traffic
  // cells in the grid stay byte-identical. Installed unconditionally (the
  // closed-loop managers keep their own sequential ids and never draw).
  traffic::FlowUidScope flow_uid_scope;

  // Per-run packet pool (sibling of the uid scope): every make_packet() in
  // this run draws from a private free list and recycles back into it, so
  // steady-state packet churn never touches the heap and concurrent sweep
  // jobs never share packet storage. Declared before the simulator and
  // topology so in-flight packets recycle into a still-live pool during
  // teardown (destruction is reverse declaration order).
  net::PacketPool packet_pool;
  net::PacketPool::Scope packet_pool_scope(packet_pool);

  // Per-run metrics registry (third sibling scope): installed before the
  // topology is built so every Port, Marker and TcpSender resolves its
  // handles at construction. When metrics are off no scope exists and every
  // instrument stays a null handle -- observation never changes results.
  const bool collect_metrics = cfg.collect_metrics || !cfg.metrics_out.empty();
  obs::MetricsRegistry registry;
  std::optional<obs::MetricsRegistry::Scope> metrics_scope;
  if (collect_metrics) metrics_scope.emplace(registry);

  // Time-series sampler (fourth sibling scope), likewise installed before
  // the topology so every port registers its per-queue channels at
  // construction. --series-out implies sampling at a 100us default. Only
  // the dump reads the rings' points, so without one no points are kept:
  // the stability reduction sees every tick either way.
  obs::TimeSeriesConfig ts_cfg = cfg.timeseries;
  if (cfg.series_out.empty()) {
    ts_cfg.max_samples = 0;
  } else if (!ts_cfg.enabled()) {
    ts_cfg.interval = 100 * sim::kMicrosecond;
  }
  const bool sample_series = ts_cfg.enabled();
  std::optional<obs::TimeSeries> series;
  std::optional<obs::TimeSeries::Scope> series_scope;
  if (sample_series) {
    series.emplace(ts_cfg);
    series_scope.emplace(*series);
  }

  // Like the trace file: open --series-out before the run so unwritable
  // paths fail in milliseconds.
  std::ofstream series_file;
  if (!cfg.series_out.empty()) {
    series_file = obs::open_output_file(cfg.series_out);
  }

  // The trace file opens before the simulation runs a single event, so an
  // unwritable --trace-out path fails in milliseconds, not after the run.
  std::ofstream trace_file;
  std::optional<obs::JsonlTraceWriter> trace_writer;
  if (!cfg.trace_out.empty()) {
    trace_file = obs::open_output_file(cfg.trace_out);
    trace_writer.emplace(trace_file);
  }

  // Hybrids reserve num_sp strict queues ahead of the service queues; the
  // rank-based approximations do the same when running the priority rank
  // program (PIAS mode: queue 0 outranks all service queues by rank).
  const bool rank_priority =
      (cfg.sched.kind == SchedKind::kSpPifo ||
       cfg.sched.kind == SchedKind::kAifo) &&
      cfg.sched.rank == RankProgram::kPriority;
  const std::size_t num_sp = is_hybrid(cfg.sched.kind) || rank_priority
                                 ? cfg.sched.num_sp
                                 : 0;
  const std::size_t num_service_queues =
      cfg.num_service_queues > 0 ? cfg.num_service_queues : cfg.num_services;

  SchedConfig sched = cfg.sched;
  sched.num_queues = num_sp + num_service_queues;

  sim::Simulator sim;
  const auto sched_factory = make_scheduler_factory(sched);
  const auto marker_factory = make_marker_factory(cfg.scheme, cfg.params);

  topo::Network network = [&] {
    if (cfg.topology == FctExperiment::Topology::kStarConverge) {
      topo::StarConfig star = cfg.star;
      star.num_queues = sched.num_queues;
      return topo::build_star(sim, star, sched_factory, marker_factory);
    }
    topo::LeafSpineConfig ls = cfg.leaf_spine;
    ls.num_queues = sched.num_queues;
    return topo::build_leaf_spine(sim, ls, sched_factory, marker_factory);
  }();

  // Fault plan and invariant checking attach to the freshly built topology
  // before any traffic is scheduled; both must outlive the run.
  fault::FaultInjector injector(sim, cfg.seed ^ 0xfa117a6c7ed5eedULL);
  if (!cfg.faults.empty()) injector.apply(network, cfg.faults);

  // Observer stack over every port (switch egresses and host NICs). Order
  // matters: the flight recorder runs FIRST so the event that trips the
  // checker is already in the ring when the post-mortem formats it. The
  // recorder also rides along whenever a budget is armed -- a budget kill
  // is exactly the moment a postmortem pays for itself -- and observers
  // never change simulation results, only what gets reported.
  // Open-loop runs always have (at least) the default pending-event guard
  // armed, so they get the same budget-kill postmortem treatment.
  const bool has_budget = cfg.wall_budget_ms > 0.0 || cfg.event_budget != 0 ||
                          cfg.sim_time_budget != 0 ||
                          cfg.pending_event_budget != 0 || open_loop;
  const bool record_flight =
      cfg.flight_recorder_depth > 0 && (cfg.check_invariants || has_budget);
  obs::FlightRecorder flight_recorder(cfg.flight_recorder_depth);
  net::InvariantChecker checker(/*fail_fast=*/false);
  std::vector<net::PortObserver*> observers;
  if (record_flight) observers.push_back(&flight_recorder);
  if (cfg.check_invariants) {
    if (record_flight) {
      checker.set_postmortem([&] { return flight_recorder.format_tail(); });
    }
    observers.push_back(&checker);
  }
  if (trace_writer) observers.push_back(&*trace_writer);
  if (cfg.extra_observer != nullptr) observers.push_back(cfg.extra_observer);

  stats::TeeObserver tee(observers);
  net::PortObserver* observer = nullptr;
  if (observers.size() == 1) observer = observers.front();
  if (observers.size() > 1) observer = &tee;
  if (observer != nullptr) {
    for (std::size_t s = 0; s < network.num_switches(); ++s) {
      auto& sw = network.switch_at(s);
      for (std::size_t p = 0; p < sw.num_ports(); ++p) {
        sw.port(p).set_observer(observer);
      }
    }
    for (std::size_t h = 0; h < network.num_hosts(); ++h) {
      network.host(h).nic().set_observer(observer);
    }
  }

  // Closed-loop runs keep the exact per-flow collector; open-loop runs
  // stream (O(1) memory) so 10M+ completions don't grow the heap per flow.
  stats::FctCollector fct;
  stats::StreamingFctCollector streaming_fct;
  std::size_t flows_completed = 0;
  const auto on_flow_done = [&](const transport::FlowResult& r) {
    if (open_loop) {
      streaming_fct.add(r);
    } else {
      fct.add(r);
    }
    ++flows_completed;
  };
  transport::FlowManager fm(on_flow_done);
  transport::ConnectionPool pool(on_flow_done);
  const workload::FlowLauncher launcher =
      cfg.persistent_connections
          ? workload::FlowLauncher([&pool](net::Host& src, net::Host& dst,
                                           transport::FlowSpec spec) {
              pool.submit(src, dst, std::move(spec));
            })
          : workload::FlowLauncher([&fm](net::Host& src, net::Host& dst,
                                         transport::FlowSpec spec) {
              fm.start_flow(src, dst, std::move(spec));
            });

  // DSCP plan: strict-priority queues occupy dscp [0, num_sp); services map
  // to dscp num_sp + queue. With PIAS, the head of every flow is tagged into
  // the shared high-priority queue 0 and ACKs ride the high queue too (small
  // control packets are prioritized, Sec. 2.2).
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

  // Open-loop state. The slab is declared after the simulator and network:
  // destruction is reverse order, so live slots tear down (cancelling
  // timers, unbinding ports, recycling packets) while both are still alive.
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
    ecfg.converge = cfg.topology == FctExperiment::Topology::kStarConverge;
    engine = std::make_unique<traffic::TrafficEngine>(
        sim, network.host_ptrs(), cfg.traffic, ecfg, spec_fn, on_flow_done);
    engine->start();
  } else if (cfg.topology == FctExperiment::Topology::kStarConverge) {
    // Host 0 is the client (receiver); all others serve data to it, and the
    // generator picks the flow's service uniformly (Sec. 6.1.2). The size
    // distribution is the first configured workload (testbed experiments use
    // web search only).
    std::vector<net::Host*> senders;
    for (std::size_t i = 1; i < network.num_hosts(); ++i) {
      senders.push_back(&network.host(i));
    }
    converge = std::make_unique<workload::ConvergeGenerator>(
        sim, launcher, std::move(senders), &network.host(0),
        &workload::distribution(cfg.service_workloads[0]), gen_cfg, spec_fn);
    converge->start();
  } else {
    // 144x143 pairs evenly partitioned into services; service s draws sizes
    // from service_workloads[s % |workloads|] (Sec. 6.2 uses all four).
    std::vector<const sim::Ecdf*> dists;
    for (std::uint32_t s = 0; s < cfg.num_services; ++s) {
      dists.push_back(&workload::distribution(
          cfg.service_workloads[s % cfg.service_workloads.size()]));
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

  // Arm the sampler last, after the workload scheduled its first events:
  // the tick stops re-arming once it finds the queue otherwise empty, so a
  // run that would have drained still drains.
  if (sample_series) series->start(sim);

  sim::RunBudget budget;
  budget.max_wall_ms = cfg.wall_budget_ms;
  budget.max_events = cfg.event_budget;
  budget.max_sim_time = cfg.sim_time_budget;
  budget.max_pending = cfg.pending_event_budget;
  // Overload guard: open loop with no explicit pending budget still gets
  // one, so load > 1 dies as a classified kOomGuard failure, not an OOM.
  if (open_loop && budget.max_pending == 0) {
    budget.max_pending = kOpenLoopDefaultPendingBudget;
  }
  if (budget.any()) sim.set_budget(budget);

  const auto postmortem = [&]() -> std::string {
    return record_flight ? flight_recorder.format_tail() : std::string();
  };

  const sim::Time limit = cfg.time_limit > 0 ? cfg.time_limit : sim::kTimeMax;
  try {
    sim.run(limit);
  } catch (const sim::BudgetExceeded& e) {
    const RunErrorKind kind = e.kind() == sim::BudgetExceeded::Kind::kPending
                                  ? RunErrorKind::kOomGuard
                                  : RunErrorKind::kTimeout;
    throw ExperimentError(kind, e.what(), postmortem());
  }

  FctReport report;
  report.summary = open_loop ? streaming_fct.summary() : fct.summary();
  report.flows_started =
      open_loop ? engine->arrivals()
                : (cfg.persistent_connections ? pool.messages_submitted()
                                              : fm.flows_started());
  report.flows_completed = flows_completed;
  if (open_loop) {
    report.traffic_open_loop = true;
    report.traffic_arrivals = engine->arrivals();
    report.traffic_replayed = engine->replayed();
    report.traffic_active_peak = engine->active_peak();
    report.traffic_offered_bytes = engine->offered_bytes();
    report.traffic_achieved_bytes = engine->achieved_bytes();
    report.slab_fresh = flow_slab->fresh_allocs();
    report.slab_reused = flow_slab->reuses();
    report.slab_recycled = flow_slab->recycles();
  }
  report.events = sim.events_executed();
  report.sim_end = sim.now();
  // Pool telemetry: fresh/reused/recycled are deterministic for a given
  // config (single-threaded run, LIFO free list); live() at this point is
  // packets still in flight when the run stopped (drained runs recycle on
  // teardown, after this snapshot).
  report.pool_fresh = packet_pool.fresh_allocs();
  report.pool_reused = packet_pool.reuses();
  report.pool_recycled = packet_pool.recycles();
  report.sim_peak_pending = sim.peak_pending();
  report.sim_calendar_resizes = sim.calendar_resizes();
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    auto& sw = network.switch_at(s);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      report.switch_drops += sw.port(p).counters().drops;
      report.switch_marks += sw.port(p).counters().marks;
      report.fault_drops += sw.port(p).counters().fault_drops;
      report.sched_drops += sw.port(p).counters().sched_drops;
    }
  }
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    report.fault_drops += network.host(h).nic().counters().fault_drops;
  }
  if (cfg.check_invariants) {
    report.invariants_checked = true;
    report.invariant_events = checker.events_checked();
    report.invariant_violations = checker.violations();
    report.invariant_message = checker.first_violation();
    if (cfg.fail_on_invariant && report.invariant_violations > 0) {
      throw ExperimentError(
          RunErrorKind::kInvariant,
          std::to_string(report.invariant_violations) +
              " invariant violation(s) -- first: " + report.invariant_message,
          postmortem());
    }
  }
  if (sample_series) {
    report.stability_analyzed = true;
    report.series_channels = series->num_channels();
    report.series_ticks = series->ticks();
    if (const obs::TimeSeries::Channel* dom = series->dominant_channel()) {
      report.stability_channel = dom->name();
      report.stability = dom->analyzer().result(dom->cap_bytes());
    }
    // Mirror the headline reduction into the metrics registry (before the
    // snapshot below). Only when sampling ran: a metrics-only run keeps the
    // exact pinned key set of tests/golden/.
    if (collect_metrics) {
      registry.gauge("stability/oscillation_score")
          .set(report.stability.oscillation_score);
      registry.gauge("stability/sojourn_cv").set(report.stability.sojourn_cv);
      registry.gauge("stability/mark_burstiness")
          .set(report.stability.mark_burstiness);
    }
    if (!cfg.series_out.empty()) {
      obs::write_series_jsonl(series_file, *series);
      series_file.flush();
      if (!series_file) {
        throw std::runtime_error("write failed for '" + cfg.series_out + "'");
      }
    }
  }
  if (collect_metrics) {
    report.metrics_collected = true;
    report.metrics = registry.snapshot();
    if (!cfg.metrics_out.empty()) {
      obs::write_text_file(cfg.metrics_out,
                           obs::metrics_to_json(report.metrics) + "\n");
    }
  }
  if (trace_writer) {
    report.trace_records = trace_writer->records_written();
    trace_file.flush();
    if (!trace_file) {
      throw std::runtime_error("write failed for '" + cfg.trace_out + "'");
    }
  }
  return report;
}

}  // namespace tcn::core
