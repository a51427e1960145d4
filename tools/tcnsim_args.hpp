// tcnsim's command line: one row table (runner/flags.hpp) holding the
// experiment flags, --seeds and the shared sweep and grid rows, so one
// parse_flags call parses argv and one flags_usage call prints --help. A
// header so that the flag tests parse exactly what the tool parses.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "fault/fault.hpp"
#include "runner/flags.hpp"
#include "topo/network.hpp"
#include "traffic/spec.hpp"
#include "workload/distributions.hpp"

namespace tcn::tools {

struct TcnsimArgs {
  runner::SweepFlags sweep;
  std::vector<std::uint64_t> seeds;
  core::FctExperiment cfg;  ///< complete once parse_tcnsim_args returns

  // Flags whose default depends on --topology, which may come later in
  // argv; apply_topology_defaults fills what none of them gave.
  std::optional<sim::Time> rtt_lambda;
  std::optional<std::uint64_t> red_k_bytes;
  std::optional<sim::Time> rto_min;
  std::optional<std::uint32_t> services;
  std::optional<std::vector<workload::Kind>> workloads;
  std::optional<bool> persistent_connections;

  TcnsimArgs() {
    sweep.jobs = 1;
    cfg.sched.kind = core::SchedKind::kDwrr;
    cfg.load = 0.7;
    cfg.num_flows = 1000;
    cfg.time_limit = 600 * sim::kSecond;
  }
};

inline runner::FlagTable tcnsim_flags(TcnsimArgs& a) {
  auto& cfg = a.cfg;
  // A time in `unit`s that a sim::Time can hold; `positive` rejects <= 0.
  const auto time = [](const std::string& flag, const std::string& value,
                       sim::Time unit, bool positive = false) {
    const sim::Time t =
        sim::to_time(flag, sim::parse_double(flag, value), unit);
    if (positive && t <= 0) {
      throw std::invalid_argument(flag + ": must be positive");
    }
    return t;
  };
  const auto heading = [](const char* title) {
    return runner::Flag{"", "", title, {}};
  };
  runner::FlagTable t;
  t.push_back(heading("topology:"));
  t.push_back({"--topology", "star|leafspine",
               "(default star: the 9-host 1G testbed;\n"
               " leafspine: 144 hosts, 12x12, 10G)",
               [&cfg](const std::string& flag, const std::string& v) {
                 using Topology = core::FctExperiment::Topology;
                 if (v != "star" && v != "leafspine") {
                   throw std::invalid_argument(flag + ": star or leafspine");
                 }
                 cfg.topology = v == "star" ? Topology::kStarConverge
                                            : Topology::kLeafSpine;
               }});
  t.push_back({"--hosts", "N", "star host count (default 9)",
               runner::number_setter(cfg.star.num_hosts)});
  t.push_back(heading("scheme / scheduler:"));
  t.push_back({"--scheme", core::scheme_cli_names("|"),
               "marking scheme (default tcn)",
               [&cfg](const std::string&, const std::string& v) {
                 cfg.scheme = core::parse_scheme(v);
               }});
  t.push_back({"--sched", core::sched_cli_names("|", /*with_params=*/true),
               "packet scheduler (default dwrr)\n"
               "(sp-pifo: strict-priority levels, default 8;\n"
               " aifo: rank window and headroom k, default 128,0.1)",
               [&cfg](const std::string&, const std::string& v) {
                 core::parse_sched_spec(v, cfg.sched);
               }});
  t.push_back({"--rtt-lambda-us", "T",
               "TCN threshold / dynamic-threshold time (default:\n"
               "256 star, 78 leafspine)",
               [&a, time](const std::string& flag, const std::string& v) {
                 a.rtt_lambda = time(flag, v, sim::kMicrosecond);
               }});
  t.push_back({"--red-k-bytes", "K",
               "static RED threshold (default: 32000 / 97500)",
               [&a](const std::string& flag, const std::string& v) {
                 a.red_k_bytes = sim::parse_u64(flag, v);
               }});
  t.push_back(heading("traffic:"));
  t.push_back({"--load", "F", "offered load fraction (default 0.7)",
               runner::number_setter(cfg.load)});
  t.push_back({"--flows", "N", "flows to generate (default 1000)",
               runner::number_setter(cfg.num_flows)});
  t.push_back({"--services", "N",
               "service count (default 4 star / 7 leafspine)",
               [&a](const std::string& flag, const std::string& v) {
                 const std::uint64_t n = sim::parse_u64(flag, v);
                 if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
                   throw std::invalid_argument(flag +
                                               ": must be in [1, 2^32 - 1]");
                 }
                 a.services = static_cast<std::uint32_t>(n);
               }});
  t.push_back({"--workload", "a,b,...",
               "size distributions, cycled over services\n"
               "(default websearch; leafspine default: all 4)",
               [&a](const std::string& flag, const std::string& v) {
                 std::vector<workload::Kind> kinds;
                 for (const auto& w : sim::list_elements(flag, v)) {
                   kinds.push_back(workload::from_name(w));
                 }
                 a.workloads = std::move(kinds);
               }});
  t.push_back({"--pias", "", "PIAS two-priority tagging (adds an SP queue)",
               runner::switch_setter(cfg.pias)});
  t.push_back({"--traffic", "SPEC",
               "open-loop arrival engine instead of the fixed\n"
               "flow list: ';'-separated sources\n"
               "  poisson:<name>:<workload>:<share>[:<dscp>]\n"
               "  mmpp:<name>:<workload>:<share>[:<dscp>\n"
               "       [:<burst>[:<duty>[:<dwell_ms>]]]]\n"
               "  diurnal:<period_s>:<min>:<peak>\n"
               "  replay:<path>             (JSONL flow trace)\n"
               "each tenant has its own size CDF, load share\n"
               "and optional DSCP (\"-\" = scheme default);\n"
               "--load may exceed 1 (sustained overload trips\n"
               "the pending-event guard), --flows caps total\n"
               "tenant arrivals (0 = unlimited). Example:\n"
               "  --traffic \"poisson:web:websearch:0.7;mmpp:batch:"
               "datamining:0.3:-:4:0.25:10;diurnal:60:0.5:1.5\"",
               [&cfg](const std::string&, const std::string& v) {
                 cfg.traffic = traffic::parse_traffic_spec(v);
               }});
  t.push_back({"--time-limit-s", "F",
               "simulated-time horizon (default 600; a normal\n"
               "stop, not an error -- long open-loop runs at\n"
               "testbed rates need more than 600 s of sim time)",
               [&cfg, time](const std::string& flag, const std::string& v) {
                 cfg.time_limit = time(flag, v, sim::kSecond, true);
               }});
  t.push_back({"--per-flow-connections", "",
               "cold connection per flow (default for leafspine)",
               [&a](const std::string&, const std::string&) {
                 a.persistent_connections = false;
               }});
  t.push_back({"--persistent-connections", "",
               "warm connection pool (default for star)",
               [&a](const std::string&, const std::string&) {
                 a.persistent_connections = true;
               }});
  t.push_back(heading("transport:"));
  t.push_back({"--transport", "dctcp|ecnstar", "(default dctcp)",
               [&cfg](const std::string& flag, const std::string& v) {
                 if (v != "dctcp" && v != "ecnstar") {
                   throw std::invalid_argument(flag + ": dctcp or ecnstar");
                 }
                 cfg.tcp.cc = v == "dctcp"
                                  ? transport::CongestionControl::kDctcp
                                  : transport::CongestionControl::kEcnStar;
               }});
  t.push_back({"--sack", "", "TCP option: selective ACKs",
               runner::switch_setter(cfg.tcp.sack)});
  t.push_back({"--delayed-ack", "", "TCP option: delayed ACKs",
               runner::switch_setter(cfg.tcp.delayed_ack)});
  t.push_back({"--rto-min-us", "T", "(default 10000 star / 5000 leafspine)",
               [&a, time](const std::string& flag, const std::string& v) {
                 a.rto_min = time(flag, v, sim::kMicrosecond);
               }});
  t.push_back(heading("faults / robustness:"));
  t.push_back({"--faults", "SPEC",
               "';'-separated fault list applied to the built\n"
               "topology (times in ms):\n"
               "  linkdown:<target>:<start>:<duration>\n"
               "  loss:<target>:<p>[:<start>:<duration>]\n"
               "  geloss:<target>:<p>[:<burst_pkts>[:<start>:<duration>]]\n"
               "  squeeze:<target>:<bytes>:<start>:<duration>\n"
               "<target> is a port-name glob (\"leaf*\", \"*.nic\",\n"
               "\"sw0.p3\") or a link pair \"leaf0-spine2\" (downs\n"
               "both directions). Example:\n"
               "  --faults \"geloss:leaf*:0.01;linkdown:leaf0-spine0:100:50\"",
               [&cfg](const std::string&, const std::string& v) {
                 cfg.faults = fault::parse_fault_specs(v);
               }});
  t.push_back({"--check-invariants", "",
               "attach a runtime invariant checker (byte\n"
               "conservation, occupancy, timestamps) to every\n"
               "port and report the outcome",
               runner::switch_setter(cfg.check_invariants)});
  t.push_back({"--fail-on-invariant", "",
               "implies --check-invariants; any violation fails\n"
               "the run (error kind \"invariant-violation\",\n"
               "flight-recorder postmortem attached)",
               [&cfg](const std::string&, const std::string&) {
                 cfg.check_invariants = true;
                 cfg.fail_on_invariant = true;
               }});
  t.push_back({"--wall-budget-ms", "F",
               "per-run wall-clock watchdog: a run exceeding it\n"
               "fails as \"timeout\" instead of hanging its worker",
               [&cfg](const std::string& flag, const std::string& v) {
                 cfg.wall_budget_ms = sim::parse_double(flag, v);
                 if (cfg.wall_budget_ms <= 0) {
                   throw std::invalid_argument(flag + ": must be positive");
                 }
               }});
  t.push_back({"--event-budget", "N",
               "per-run simulated-event budget (deterministic;\n"
               "exceeding it fails the run as \"timeout\")",
               runner::number_setter(cfg.event_budget)});
  t.push_back({"--sim-time-budget-s", "F",
               "per-run simulated-time budget in seconds\n"
               "(deterministic \"timeout\"; unlike the normal\n"
               "time limit, exceeding it is an error)",
               [&cfg, time](const std::string& flag, const std::string& v) {
                 cfg.sim_time_budget = time(flag, v, sim::kSecond, true);
               }});
  t.push_back({"--pending-budget", "N",
               "cap on pending simulator events; exceeding it\n"
               "fails the run as \"oom-guard\"",
               runner::number_setter(cfg.pending_event_budget)});
  t.push_back(heading("observability:"));
  t.push_back({"--metrics-out", "PATH",
               "write a tcn-metrics-1 JSON snapshot of every\n"
               "counter/gauge/histogram after the run (\"-\" =\n"
               "stdout; in a sweep: merged across all runs)",
               runner::path_setter(cfg.metrics_out)});
  t.push_back({"--trace-out", "PATH",
               "stream a tcn-trace-1 JSONL per-packet event\n"
               "trace (enq/deq/drop/mark) during the run\n"
               "(single-run only, rejected in sweeps)",
               runner::path_setter(cfg.trace_out)});
  t.push_back({"--sample-interval-us", "F",
               "sample every (port, queue) each F us of sim\n"
               "time (depth, sojourn, marks, throughput) and\n"
               "reduce each series online into stability\n"
               "metrics (oscillation score, sojourn CV, mark\n"
               "burstiness, stable/oscillating/saturated);\n"
               "the reduction rides the tcn-bench-1 JSON and\n"
               "journal. Off by default; sampling changes no\n"
               "FCT/drop/mark result",
               [&cfg, time](const std::string& flag, const std::string& v) {
                 cfg.timeseries.interval =
                     time(flag, v, sim::kMicrosecond, true);
               }});
  t.push_back({"--sample-ring", "N",
               "per-channel ring capacity: the last N samples\n"
               "are retained for --series-out (default 2048;\n"
               "without --series-out no samples are kept; the\n"
               "stability reduction always sees every sample)",
               [&cfg](const std::string& flag, const std::string& v) {
                 cfg.timeseries.max_samples = sim::parse_u64(flag, v);
                 if (cfg.timeseries.max_samples == 0) {
                   throw std::invalid_argument(flag + ": must be positive");
                 }
               }});
  t.push_back({"--series-out", "PATH",
               "write a tcn-series-1 JSONL dump of every\n"
               "sampled channel after the run (single-run\n"
               "only, rejected in sweeps; implies sampling at\n"
               "100 us when --sample-interval-us is not given)",
               runner::path_setter(cfg.series_out)});
  t.push_back(heading("misc:"));
  t.push_back({"--seed", "S", "RNG seed (default 1)",
               runner::number_setter(cfg.seed)});
  t.push_back(heading("sweep execution:"));
  runner::add_sweep_flags(t, a.sweep);
  t.push_back({"--seeds", "s1,s2,...",
               "run a seed sweep (cross product with --loads)",
               runner::list_setter(a.seeds, sim::parse_u64)});
  runner::add_grid_flags(t, a.sweep);
  return t;
}

/// The paper's configuration of the chosen topology under what the flags
/// gave, applied after parsing so that flag order does not matter.
inline void apply_topology_defaults(TcnsimArgs& a) {
  auto& cfg = a.cfg;
  const bool leaf = cfg.topology == core::FctExperiment::Topology::kLeafSpine;
  cfg.params.rtt_lambda =
      a.rtt_lambda.value_or((leaf ? 78 : 256) * sim::kMicrosecond);
  cfg.params.red_threshold_bytes =
      a.red_k_bytes.value_or(leaf ? 65 * 1'500 : 32'000);
  cfg.tcp.rto_min = a.rto_min.value_or((leaf ? 5 : 10) * sim::kMillisecond);
  cfg.tcp.rto_init = cfg.tcp.rto_min;
  cfg.num_services = a.services.value_or(leaf ? 7 : 4);
  cfg.service_workloads = a.workloads.value_or(
      leaf ? workload::all_kinds()
           : std::vector<workload::Kind>{workload::Kind::kWebSearch});
  cfg.persistent_connections = a.persistent_connections.value_or(!leaf);
  if (leaf) {
    cfg.tcp.init_cwnd_pkts = 16;
  } else {
    cfg.star.host_delay = topo::star_host_delay_for_rtt(
        250 * sim::kMicrosecond, cfg.star.link_prop);
  }
  // CoDel tuning scaled off the base RTT (the testbed recipe: target ~RTT/5,
  // interval ~4x RTT).
  cfg.params.codel_target = cfg.params.rtt_lambda / 5;
  cfg.params.codel_interval = 4 * cfg.params.rtt_lambda;
  // Probabilistic TCN default band around T.
  cfg.params.tcn_tmin = cfg.params.rtt_lambda / 2;
  cfg.params.tcn_tmax = 3 * cfg.params.rtt_lambda / 2;
  cfg.params.tcn_pmax = 1.0;
  cfg.params.seed = cfg.seed;
  if (cfg.pias && (cfg.sched.kind == core::SchedKind::kDwrr ||
                   cfg.sched.kind == core::SchedKind::kWfq)) {
    // PIAS needs a strict queue: upgrade to the hybrid automatically.
    cfg.sched.kind = cfg.sched.kind == core::SchedKind::kDwrr
                         ? core::SchedKind::kSpDwrr
                         : core::SchedKind::kSpWfq;
    cfg.sched.num_sp = 1;
  }
  if (cfg.pias && (cfg.sched.kind == core::SchedKind::kSpPifo ||
                   cfg.sched.kind == core::SchedKind::kAifo)) {
    // The rank-based approximations express PIAS's strict queue through the
    // priority rank program (rank = queue index, so the reserved queue 0
    // outranks everything); the experiment reserves num_sp queues for it.
    cfg.sched.rank = core::RankProgram::kPriority;
    cfg.sched.num_sp = 1;
  }
}

/// Parses argv[1..]; throws std::invalid_argument naming the flag.
inline TcnsimArgs parse_tcnsim_args(const std::vector<std::string>& args) {
  TcnsimArgs a;
  runner::parse_flags(tcnsim_flags(a), args);
  apply_topology_defaults(a);
  return a;
}

}  // namespace tcn::tools
