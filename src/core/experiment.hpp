// High-level FCT experiment harness: builds a topology, installs a scheme
// and scheduler on every switch port, generates a Poisson workload, runs to
// completion, and reports the paper's FCT statistics. Every dynamic-workload
// figure (6-13) is one sweep over this function.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/schemes.hpp"
#include "fault/fault.hpp"
#include "net/trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "stats/fct.hpp"
#include "traffic/spec.hpp"
#include "transport/tcp.hpp"
#include "workload/distributions.hpp"

namespace tcn::core {

/// Coarse classification of why a run failed -- the error taxonomy the
/// sweep runner records and the tcn-bench-1 JSON surfaces. Kept in core
/// (not runner) because run_fct_experiment is what throws it.
enum class RunErrorKind : std::uint8_t {
  kException,  ///< any unclassified exception (config error, logic bug)
  kTimeout,    ///< a wall-clock / sim-time / event budget or the event-storm
               ///< watchdog tripped
  kOomGuard,   ///< the pending-event guard tripped (unbounded growth)
  kInvariant,  ///< invariant checking was strict and found violations
};

/// Exception run_fct_experiment throws for classified failures. Carries the
/// taxonomy kind plus an optional flight-recorder postmortem (the last N
/// port events before death) so a failed run in a 2000-cell sweep explains
/// itself from the RunRecord alone.
class ExperimentError : public std::runtime_error {
 public:
  ExperimentError(RunErrorKind kind, const std::string& what,
                  std::string postmortem = {})
      : std::runtime_error(what),
        kind_(kind),
        postmortem_(std::move(postmortem)) {}

  [[nodiscard]] RunErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& postmortem() const noexcept {
    return postmortem_;
  }

 private:
  RunErrorKind kind_;
  std::string postmortem_;
};

struct FctExperiment {
  enum class Topology { kStarConverge, kLeafSpine };
  Topology topology = Topology::kStarConverge;

  Scheme scheme = Scheme::kTcn;
  SchemeParams params;
  SchedConfig sched;

  // Traffic.
  double load = 0.5;
  std::size_t num_flows = 1000;
  std::uint64_t seed = 1;
  std::uint32_t num_services = 4;
  /// Workload per service (cycled if shorter than num_services).
  std::vector<workload::Kind> service_workloads = {workload::Kind::kWebSearch};
  /// Number of low-priority service queues; defaults to num_services. When it
  /// differs (the 32-queue robustness experiment), each flow is hashed to a
  /// uniform service queue while keeping its service's size distribution.
  std::size_t num_service_queues = 0;

  // PIAS flow scheduling (Sec. 6.1.3 / 6.2): first `pias_threshold` bytes to
  // the shared strict-high-priority queue.
  bool pias = false;
  std::uint64_t pias_threshold = 100'000;

  /// true: flows are messages over warm persistent connections (the testbed
  /// application, Sec. 6.1.2). false: one cold TCP connection per flow (the
  /// ns-2 model used in the large-scale simulations).
  bool persistent_connections = true;

  transport::TcpConfig tcp;

  // Topology parameters (only the matching one is used).
  topo::StarConfig star;
  topo::LeafSpineConfig leaf_spine;

  /// Declarative fault plan applied to the built topology before traffic
  /// starts (link outages, random loss, buffer squeezes). See
  /// fault::parse_fault_specs for the --faults grammar.
  fault::FaultPlan faults;

  /// Open-loop traffic scenario (see traffic::parse_traffic_spec for the
  /// --traffic grammar). When enabled() the closed-loop generators are
  /// replaced by traffic::TrafficEngine: arrivals come from the spec's
  /// tenants/trace on their own clock, per-flow transport state recycles
  /// through a per-run traffic::FlowSlab, FCT statistics stream through the
  /// O(1)-memory collector, `load` may exceed 1 (sustained overload), and
  /// `num_flows` caps total tenant arrivals (0 = unlimited -- then a
  /// time_limit or budget must stop the run). A default pending-event
  /// budget is installed when none is configured, so overload terminates as
  /// a classified kOomGuard failure instead of unbounded growth.
  traffic::TrafficSpec traffic;

  /// Attach a net::InvariantChecker to every port (switch egresses and host
  /// NICs) and report the outcome. Violations are collected, not thrown, so
  /// a broken run still yields a report to debug from. A flight recorder of
  /// `flight_recorder_depth` events rides along; its tail is appended to the
  /// first violation message as a post-mortem.
  bool check_invariants = false;
  std::size_t flight_recorder_depth = obs::FlightRecorder::kDefaultDepth;

  /// Install a per-run obs::MetricsRegistry so ports, markers and transports
  /// publish counters/histograms; the snapshot lands in FctReport::metrics.
  /// Collection changes no simulation result -- only what gets observed.
  bool collect_metrics = false;
  /// Write a tcn-metrics-1 snapshot here after the run (implies
  /// collect_metrics). Unwritable paths throw std::runtime_error.
  std::string metrics_out;
  /// Stream a tcn-trace-1 JSONL trace of every port (switch egresses and
  /// host NICs) here during the run. The file is opened before the
  /// simulation starts, so unwritable paths fail early.
  std::string trace_out;
  /// Extra observer fanned out to every port alongside the checker/trace
  /// writer (test hook); must outlive the run.
  net::PortObserver* extra_observer = nullptr;

  /// Fixed-interval time-series sampling + online stability analysis
  /// (obs::TimeSeries). Off by default (interval == 0): no scope is
  /// installed, ports keep null channel handles, and nothing changes --
  /// not even the metrics snapshot. When enabled, every (port, queue)
  /// records depth/sojourn/marks/throughput each interval; the reduction
  /// lands in FctReport::stability. Sampling adds tick events (so
  /// FctReport::events grows) but changes no FCT, drop or mark result.
  /// `max_samples` sizes the rings that only series_out reads: a run
  /// without series_out keeps no points.
  obs::TimeSeriesConfig timeseries;
  /// Write a tcn-series-1 JSONL dump of every sampled channel here after
  /// the run (single-run deep dives). Implies sampling: when no interval
  /// was configured, a 100us default is used. Opened before the simulation
  /// starts, so unwritable paths fail early.
  std::string series_out;

  /// Hard stop; 0 means run until every flow completes or events drain.
  sim::Time time_limit = 0;

  /// Per-run execution budgets (0 = unlimited), enforced inside
  /// sim::Simulator::run. Unlike time_limit -- a normal stop -- exceeding a
  /// budget throws ExperimentError: wall/sim-time/event budgets classify as
  /// kTimeout, the pending-event guard as kOomGuard. Event and sim-time
  /// budgets are deterministic; the wall-clock watchdog measures the host
  /// (use it to bound hung jobs, not as a reproducible limit).
  double wall_budget_ms = 0.0;
  std::uint64_t event_budget = 0;
  sim::Time sim_time_budget = 0;
  std::size_t pending_event_budget = 0;

  /// With check_invariants: treat any invariant violation as a run failure
  /// (ExperimentError, kind kInvariant, postmortem attached) instead of
  /// reporting it in FctReport and returning ok.
  bool fail_on_invariant = false;
};

struct FctReport {
  stats::FctSummary summary;
  std::size_t flows_started = 0;
  std::size_t flows_completed = 0;
  std::uint64_t switch_drops = 0;  ///< shared-buffer drops (congestion)
  std::uint64_t switch_marks = 0;
  /// Packets blackholed by injected faults (downed links, random loss),
  /// summed over every switch port and host NIC -- reported separately from
  /// buffer drops so fault scenarios stay diagnosable.
  std::uint64_t fault_drops = 0;
  /// Packets rejected by scheduler admission control (AIFO's quantile gate),
  /// summed over every switch port -- a scheduling decision, reported apart
  /// from both buffer and fault drops.
  std::uint64_t sched_drops = 0;
  std::uint64_t events = 0;
  sim::Time sim_end = 0;

  // Packet-pool telemetry (deterministic per config): fresh slab growths,
  // zero-allocation free-list reuses, and packets returned to the pool.
  // pool_fresh bounds the run's peak live packet population; pool_reused
  // >> pool_fresh is the steady-state zero-allocation signature.
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_reused = 0;
  std::uint64_t pool_recycled = 0;

  // Event-engine telemetry (deterministic per config): high-water mark of
  // pending events and calendar-queue rebuilds.
  std::uint64_t sim_peak_pending = 0;
  std::uint64_t sim_calendar_resizes = 0;

  // Populated when the run was open loop (cfg.traffic.enabled()). Arrivals
  // counts tenant arrivals + replayed flows; active_peak bounds the slab's
  // working set; offered vs. achieved bytes quantify the load the network
  // absorbed vs. what the engine injected; slab counters mirror the packet
  // pool's fresh/reuse/recycle discipline at flow granularity.
  bool traffic_open_loop = false;
  std::uint64_t traffic_arrivals = 0;
  std::uint64_t traffic_replayed = 0;
  std::uint64_t traffic_active_peak = 0;
  std::uint64_t traffic_offered_bytes = 0;
  std::uint64_t traffic_achieved_bytes = 0;
  std::uint64_t slab_fresh = 0;
  std::uint64_t slab_reused = 0;
  std::uint64_t slab_recycled = 0;

  // Populated when check_invariants was set.
  bool invariants_checked = false;
  std::uint64_t invariant_events = 0;
  std::uint64_t invariant_violations = 0;
  std::string invariant_message;  ///< first violation, empty when clean

  // Populated when collect_metrics (or metrics_out) was set.
  bool metrics_collected = false;
  obs::MetricsSnapshot metrics;
  std::uint64_t trace_records = 0;  ///< JSONL records written to trace_out

  // Populated when time-series sampling ran (cfg.timeseries.enabled() or
  // series_out set). `stability` reduces the run's dominant channel -- the
  // (port, queue) that carried the most tx bytes, i.e. the bottleneck
  // egress -- and is deterministic per config, so it rides the tcn-bench-1
  // JSON and journal byte-identically for any --jobs.
  bool stability_analyzed = false;
  std::uint64_t series_channels = 0;
  std::uint64_t series_ticks = 0;
  std::string stability_channel;
  obs::StabilityResult stability;
};

/// Run one experiment; deterministic for a given config (seeded RNG,
/// deterministic event ordering).
FctReport run_fct_experiment(const FctExperiment& cfg);

}  // namespace tcn::core
