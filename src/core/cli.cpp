#include "core/cli.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "topo/network.hpp"
#include "traffic/spec.hpp"

namespace tcn::core {
namespace {

std::uint64_t to_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const auto n = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return n;
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + ": expected an integer, got '" + v +
                                "'");
  }
}

double to_double(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + ": expected a number, got '" + v +
                                "'");
  }
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream in(list);
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

}  // namespace

Scheme parse_scheme(const std::string& name) {
  if (name == "tcn") return Scheme::kTcn;
  if (name == "tcn-prob") return Scheme::kTcnProb;
  if (name == "codel") return Scheme::kCodel;
  if (name == "mq-ecn") return Scheme::kMqEcn;
  if (name == "red") return Scheme::kRedPerQueue;
  if (name == "red-port") return Scheme::kRedPerPort;
  if (name == "red-dequeue") return Scheme::kRedDequeue;
  if (name == "pie") return Scheme::kPie;
  if (name == "ideal-rate") return Scheme::kIdealRate;
  if (name == "none") return Scheme::kNone;
  throw std::invalid_argument(
      "unknown scheme '" + name +
      "' (tcn, tcn-prob, codel, mq-ecn, red, red-port, red-dequeue, pie, "
      "ideal-rate, none)");
}

SchedKind parse_sched(const std::string& name) {
  if (name == "fifo") return SchedKind::kFifo;
  if (name == "sp") return SchedKind::kSp;
  if (name == "dwrr") return SchedKind::kDwrr;
  if (name == "wrr") return SchedKind::kWrr;
  if (name == "wfq") return SchedKind::kWfq;
  if (name == "sp-dwrr") return SchedKind::kSpDwrr;
  if (name == "sp-wfq") return SchedKind::kSpWfq;
  if (name == "pifo") return SchedKind::kPifoStfq;
  if (name == "sp-pifo") return SchedKind::kSpPifo;
  if (name == "aifo") return SchedKind::kAifo;
  throw std::invalid_argument(
      "unknown scheduler '" + name +
      "' (fifo, sp, dwrr, wrr, wfq, sp-dwrr, sp-wfq, pifo, sp-pifo, aifo)");
}

void parse_sched_spec(const std::string& spec, SchedConfig& sched) {
  const std::size_t colon = spec.find(':');
  sched.kind = parse_sched(spec.substr(0, colon));
  if (colon == std::string::npos) return;
  const std::string params = spec.substr(colon + 1);
  if (sched.kind == SchedKind::kSpPifo) {
    // sp-pifo:<levels> -- the number of strict-priority levels.
    sched.sp_pifo_levels = to_u64("--sched sp-pifo:<levels>", params);
    if (sched.sp_pifo_levels < 2) {
      throw std::invalid_argument("--sched sp-pifo: levels must be >= 2");
    }
  } else if (sched.kind == SchedKind::kAifo) {
    // aifo:<window>,<k> -- both required when parameters are given.
    const std::size_t comma = params.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument(
          "--sched aifo: expected aifo:<window>,<k>");
    }
    sched.aifo_window =
        to_u64("--sched aifo:<window>", params.substr(0, comma));
    if (sched.aifo_window < 1) {
      throw std::invalid_argument("--sched aifo: window must be >= 1");
    }
    sched.aifo_k = to_double("--sched aifo:<k>", params.substr(comma + 1));
    if (!(sched.aifo_k >= 0.0 && sched.aifo_k < 1.0)) {
      throw std::invalid_argument("--sched aifo: k must be in [0, 1)");
    }
  } else {
    throw std::invalid_argument("--sched: '" + spec.substr(0, colon) +
                                "' takes no parameters");
  }
}

workload::Kind parse_workload(const std::string& name) {
  if (name == "websearch") return workload::Kind::kWebSearch;
  if (name == "datamining") return workload::Kind::kDataMining;
  if (name == "hadoop") return workload::Kind::kHadoop;
  if (name == "cache") return workload::Kind::kCache;
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (websearch, datamining, hadoop, cache)");
}

std::string cli_usage() {
  return R"(tcnsim -- run a TCN paper experiment from the command line

usage: tcnsim [flags]

topology:
  --topology star|leafspine   (default star: the 9-host 1G testbed;
                               leafspine: 144 hosts, 12x12, 10G)
  --hosts N                   star host count (default 9)
scheme / scheduler:
  --scheme tcn|tcn-prob|codel|mq-ecn|red|red-port|red-dequeue|pie|ideal-rate|none
  --sched fifo|sp|dwrr|wrr|wfq|sp-dwrr|sp-wfq|pifo|sp-pifo[:levels]|aifo[:window,k]
                              (sp-pifo: strict-priority levels, default 8;
                               aifo: rank window and headroom k, default 128,0.1)
  --rtt-lambda-us T           TCN threshold / dynamic-threshold time (default:
                              256 star, 78 leafspine)
  --red-k-bytes K             static RED threshold (default: 32000 / 97500)
traffic:
  --load F                    offered load fraction (default 0.7)
  --flows N                   flows to generate (default 1000)
  --services N                service count (default 4 star / 7 leafspine)
  --workload a,b,...          size distributions, cycled over services
                              (default websearch; leafspine default: all 4)
  --pias                      PIAS two-priority tagging (adds an SP queue)
  --traffic SPEC              open-loop arrival engine instead of the fixed
                              flow list: ';'-separated sources
                                poisson:<name>:<workload>:<share>[:<dscp>]
                                mmpp:<name>:<workload>:<share>[:<dscp>
                                     [:<burst>[:<duty>[:<dwell_ms>]]]]
                                diurnal:<period_s>:<min>:<peak>
                                replay:<path>             (JSONL flow trace)
                              each tenant has its own size CDF, load share
                              and optional DSCP ("-" = scheme default);
                              --load may exceed 1 (sustained overload trips
                              the pending-event guard), --flows caps total
                              tenant arrivals (0 = unlimited). Example:
                                --traffic "poisson:web:websearch:0.7;mmpp:batch:datamining:0.3:-:4:0.25:10;diurnal:60:0.5:1.5"
  --time-limit-s F            simulated-time horizon (default 600; a normal
                              stop, not an error -- long open-loop runs at
                              testbed rates need more than 600 s of sim time)
  --per-flow-connections      cold connection per flow (default for leafspine)
  --persistent-connections    warm connection pool (default for star)
transport:
  --transport dctcp|ecnstar   (default dctcp)
  --sack --delayed-ack        TCP options
  --rto-min-us T              (default 10000 star / 5000 leafspine)
faults / robustness:
  --faults SPEC               ';'-separated fault list applied to the built
                              topology (times in ms):
                                linkdown:<target>:<start>:<duration>
                                loss:<target>:<p>[:<start>:<duration>]
                                geloss:<target>:<p>[:<burst_pkts>[:<start>:<duration>]]
                                squeeze:<target>:<bytes>:<start>:<duration>
                              <target> is a port-name glob ("leaf*", "*.nic",
                              "sw0.p3") or a link pair "leaf0-spine2" (downs
                              both directions). Example:
                                --faults "geloss:leaf*:0.01;linkdown:leaf0-spine0:100:50"
  --check-invariants          attach a runtime invariant checker (byte
                              conservation, occupancy, timestamps) to every
                              port and report the outcome
  --fail-on-invariant         implies --check-invariants; any violation fails
                              the run (error kind "invariant-violation",
                              flight-recorder postmortem attached)
  --wall-budget-ms F          per-run wall-clock watchdog: a run exceeding it
                              fails as "timeout" instead of hanging its worker
  --event-budget N            per-run simulated-event budget (deterministic;
                              exceeding it fails the run as "timeout")
  --sim-time-budget-s F       per-run simulated-time budget in seconds
                              (deterministic "timeout"; unlike the normal
                              time limit, exceeding it is an error)
  --pending-budget N          cap on pending simulator events; exceeding it
                              fails the run as "oom-guard"
observability:
  --metrics-out PATH          write a tcn-metrics-1 JSON snapshot of every
                              counter/gauge/histogram after the run ("-" =
                              stdout; in a sweep: merged across all runs)
  --trace-out PATH            stream a tcn-trace-1 JSONL per-packet event
                              trace (enq/deq/drop/mark) during the run
                              (single-run only, rejected in sweeps)
  --sample-interval-us F      sample every (port, queue) each F us of sim
                              time (depth, sojourn, marks, throughput) and
                              reduce each series online into stability
                              metrics (oscillation score, sojourn CV, mark
                              burstiness, stable/oscillating/saturated);
                              the reduction rides the tcn-bench-1 JSON and
                              journal. Off by default; sampling changes no
                              FCT/drop/mark result
  --sample-ring N             per-channel ring capacity: the last N samples
                              are retained for --series-out (default 2048;
                              without --series-out no samples are kept; the
                              stability reduction always sees every sample)
  --series-out PATH           write a tcn-series-1 JSONL dump of every
                              sampled channel after the run (single-run
                              only, rejected in sweeps; implies sampling at
                              100 us when --sample-interval-us is not given)
sweep execution (tool-level flags, handled by tcnsim itself):
  --loads l1,l2,...           run a load sweep (cross product with --seeds)
  --seeds s1,s2,...           run a seed sweep
  --jobs N                    parallel sweep workers (0 = one per core);
                              aggregated output is byte-identical for any N
  --json PATH                 write structured per-run results, schema
                              tcn-bench-1 ("-" = stdout)
  --fault-grid c1|c2|...      sweep a fault axis: each '|'-separated cell is
                              a complete --faults list ("none" = fault-free),
                              crossed with --loads/--seeds
  --traffic-grid c1|c2|...    sweep a traffic axis: each '|'-separated cell
                              is a complete --traffic list ("none" = the
                              closed-loop baseline), innermost grid dimension
  --on-failure P              what a failed run does to the sweep:
                              cancel_all (default; skip the rest) |
                              record_and_continue | retry
  --retries N                 max attempts per job (implies --on-failure
                              retry; exponential backoff with deterministic
                              jitter between attempts)
  --journal PATH              append a tcn-journal-1 checkpoint line (fsync'd)
                              as each run completes
  --resume PATH               restore completed runs from a journal and run
                              only the rest; extends PATH in place unless
                              --journal names a different file
misc:
  --seed S                    RNG seed (default 1)
  --help
)";
}

FctExperiment parse_cli(const std::vector<std::string>& args) {
  FctExperiment cfg;
  // Star testbed defaults; overridden below if leafspine is selected.
  bool is_leafspine = false;
  bool rtt_lambda_set = false, red_k_set = false, rto_set = false;
  bool services_set = false, workloads_set = false, conn_set = false;
  sim::Time time_limit = 600 * sim::kSecond;

  cfg.sched.kind = SchedKind::kDwrr;
  cfg.load = 0.7;
  cfg.num_flows = 1000;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(flag + ": missing value");
      }
      return args[++i];
    };
    if (flag == "--topology") {
      const auto& v = value();
      if (v == "star") {
        is_leafspine = false;
      } else if (v == "leafspine") {
        is_leafspine = true;
      } else {
        throw std::invalid_argument("--topology: star or leafspine");
      }
    } else if (flag == "--hosts") {
      cfg.star.num_hosts = to_u64(flag, value());
    } else if (flag == "--scheme") {
      cfg.scheme = parse_scheme(value());
    } else if (flag == "--sched") {
      parse_sched_spec(value(), cfg.sched);
    } else if (flag == "--rtt-lambda-us") {
      cfg.params.rtt_lambda =
          static_cast<sim::Time>(to_double(flag, value()) * sim::kMicrosecond);
      rtt_lambda_set = true;
    } else if (flag == "--red-k-bytes") {
      cfg.params.red_threshold_bytes = to_u64(flag, value());
      red_k_set = true;
    } else if (flag == "--load") {
      cfg.load = to_double(flag, value());
    } else if (flag == "--flows") {
      cfg.num_flows = to_u64(flag, value());
    } else if (flag == "--services") {
      cfg.num_services = static_cast<std::uint32_t>(to_u64(flag, value()));
      services_set = true;
    } else if (flag == "--workload") {
      cfg.service_workloads.clear();
      for (const auto& w : split(value())) {
        cfg.service_workloads.push_back(parse_workload(w));
      }
      if (cfg.service_workloads.empty()) {
        throw std::invalid_argument("--workload: empty list");
      }
      workloads_set = true;
    } else if (flag == "--pias") {
      cfg.pias = true;
    } else if (flag == "--per-flow-connections") {
      cfg.persistent_connections = false;
      conn_set = true;
    } else if (flag == "--persistent-connections") {
      cfg.persistent_connections = true;
      conn_set = true;
    } else if (flag == "--transport") {
      const auto& v = value();
      if (v == "dctcp") {
        cfg.tcp.cc = transport::CongestionControl::kDctcp;
      } else if (v == "ecnstar") {
        cfg.tcp.cc = transport::CongestionControl::kEcnStar;
      } else {
        throw std::invalid_argument("--transport: dctcp or ecnstar");
      }
    } else if (flag == "--sack") {
      cfg.tcp.sack = true;
    } else if (flag == "--delayed-ack") {
      cfg.tcp.delayed_ack = true;
    } else if (flag == "--rto-min-us") {
      cfg.tcp.rto_min =
          static_cast<sim::Time>(to_double(flag, value()) * sim::kMicrosecond);
      cfg.tcp.rto_init = cfg.tcp.rto_min;
      rto_set = true;
    } else if (flag == "--faults") {
      cfg.faults = fault::parse_fault_specs(value());
    } else if (flag == "--traffic") {
      cfg.traffic = traffic::parse_traffic_spec(value());
    } else if (flag == "--check-invariants") {
      cfg.check_invariants = true;
    } else if (flag == "--fail-on-invariant") {
      cfg.check_invariants = true;
      cfg.fail_on_invariant = true;
    } else if (flag == "--wall-budget-ms") {
      cfg.wall_budget_ms = to_double(flag, value());
      if (cfg.wall_budget_ms <= 0) {
        throw std::invalid_argument("--wall-budget-ms: must be positive");
      }
    } else if (flag == "--event-budget") {
      cfg.event_budget = to_u64(flag, value());
    } else if (flag == "--sim-time-budget-s") {
      cfg.sim_time_budget =
          static_cast<sim::Time>(to_double(flag, value()) * sim::kSecond);
      if (cfg.sim_time_budget <= 0) {
        throw std::invalid_argument("--sim-time-budget-s: must be positive");
      }
    } else if (flag == "--pending-budget") {
      cfg.pending_event_budget = to_u64(flag, value());
    } else if (flag == "--time-limit-s") {
      time_limit = static_cast<sim::Time>(to_double(flag, value()) *
                                          sim::kSecond);
      if (time_limit <= 0) {
        throw std::invalid_argument("--time-limit-s: must be positive");
      }
    } else if (flag == "--metrics-out") {
      cfg.metrics_out = value();
      if (cfg.metrics_out.empty()) {
        throw std::invalid_argument("--metrics-out: empty path");
      }
    } else if (flag == "--trace-out") {
      cfg.trace_out = value();
      if (cfg.trace_out.empty()) {
        throw std::invalid_argument("--trace-out: empty path");
      }
    } else if (flag == "--sample-interval-us") {
      cfg.timeseries.interval =
          static_cast<sim::Time>(to_double(flag, value()) * sim::kMicrosecond);
      if (cfg.timeseries.interval <= 0) {
        throw std::invalid_argument("--sample-interval-us: must be positive");
      }
    } else if (flag == "--sample-ring") {
      cfg.timeseries.max_samples = to_u64(flag, value());
      if (cfg.timeseries.max_samples == 0) {
        throw std::invalid_argument("--sample-ring: must be positive");
      }
    } else if (flag == "--series-out") {
      cfg.series_out = value();
      if (cfg.series_out.empty()) {
        throw std::invalid_argument("--series-out: empty path");
      }
    } else if (flag == "--seed") {
      cfg.seed = to_u64(flag, value());
    } else {
      throw std::invalid_argument("unknown flag '" + flag +
                                  "' (see --help)");
    }
  }

  // Topology-derived defaults (the paper's configurations).
  if (is_leafspine) {
    cfg.topology = FctExperiment::Topology::kLeafSpine;
    if (!rtt_lambda_set) cfg.params.rtt_lambda = 78 * sim::kMicrosecond;
    if (!red_k_set) cfg.params.red_threshold_bytes = 65 * 1'500;
    if (!rto_set) {
      cfg.tcp.rto_min = 5 * sim::kMillisecond;
      cfg.tcp.rto_init = 5 * sim::kMillisecond;
    }
    cfg.tcp.init_cwnd_pkts = 16;
    if (!services_set) cfg.num_services = 7;
    if (!workloads_set) {
      cfg.service_workloads = {
          workload::Kind::kWebSearch, workload::Kind::kDataMining,
          workload::Kind::kHadoop, workload::Kind::kCache};
    }
    if (!conn_set) cfg.persistent_connections = false;
  } else {
    cfg.topology = FctExperiment::Topology::kStarConverge;
    cfg.star.host_delay = topo::star_host_delay_for_rtt(
        250 * sim::kMicrosecond, cfg.star.link_prop);
    if (!rtt_lambda_set) cfg.params.rtt_lambda = 256 * sim::kMicrosecond;
    if (!red_k_set) cfg.params.red_threshold_bytes = 32'000;
    if (!rto_set) {
      cfg.tcp.rto_min = 10 * sim::kMillisecond;
      cfg.tcp.rto_init = 10 * sim::kMillisecond;
    }
    if (!services_set) cfg.num_services = 4;
    if (!workloads_set) {
      cfg.service_workloads = {workload::Kind::kWebSearch};
    }
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
  cfg.time_limit = time_limit;
  if (cfg.pias &&
      (cfg.sched.kind == SchedKind::kDwrr ||
       cfg.sched.kind == SchedKind::kWfq)) {
    // PIAS needs a strict queue: upgrade to the hybrid automatically.
    cfg.sched.kind = cfg.sched.kind == SchedKind::kDwrr ? SchedKind::kSpDwrr
                                                        : SchedKind::kSpWfq;
    cfg.sched.num_sp = 1;
  }
  if (cfg.pias && (cfg.sched.kind == SchedKind::kSpPifo ||
                   cfg.sched.kind == SchedKind::kAifo)) {
    // The rank-based approximations express PIAS's strict queue through the
    // priority rank program (rank = queue index, so the reserved queue 0
    // outranks everything); the experiment reserves num_sp queues for it.
    cfg.sched.rank = RankProgram::kPriority;
    cfg.sched.num_sp = 1;
  }
  return cfg;
}

std::string format_report(const FctExperiment& cfg, const FctReport& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "scheme=%s sched=%s load=%.0f%% flows=%zu/%zu\n"
      "  avg FCT (all)      : %.1f us\n"
      "  avg FCT (<=100KB)  : %.1f us   p99: %.1f us\n"
      "  avg FCT (>10MB)    : %.1f us\n"
      "  small-flow timeouts: %llu   switch drops: %llu   marks: %llu\n"
      "  events: %llu   sim time: %.3f s\n",
      scheme_name(cfg.scheme).c_str(), sched_name(cfg.sched.kind).c_str(),
      cfg.load * 100, r.flows_completed, r.flows_started, r.summary.avg_all_us,
      r.summary.avg_small_us, r.summary.p99_small_us, r.summary.avg_large_us,
      static_cast<unsigned long long>(r.summary.small_timeouts),
      static_cast<unsigned long long>(r.switch_drops),
      static_cast<unsigned long long>(r.switch_marks),
      static_cast<unsigned long long>(r.events), sim::to_seconds(r.sim_end));
  std::string out = buf;
  if (r.traffic_open_loop) {
    const double dur_s = sim::to_seconds(r.sim_end);
    const double offered_gbps =
        dur_s > 0 ? r.traffic_offered_bytes * 8.0 / dur_s / 1e9 : 0.0;
    const double achieved_gbps =
        dur_s > 0 ? r.traffic_achieved_bytes * 8.0 / dur_s / 1e9 : 0.0;
    std::snprintf(
        buf, sizeof buf,
        "  open loop: %llu arrivals (%llu replayed)   peak active: %llu\n"
        "  offered: %.3f Gbps   achieved: %.3f Gbps\n"
        "  flow slab: %llu slots, %llu reuses, %llu recycles\n",
        static_cast<unsigned long long>(r.traffic_arrivals),
        static_cast<unsigned long long>(r.traffic_replayed),
        static_cast<unsigned long long>(r.traffic_active_peak), offered_gbps,
        achieved_gbps, static_cast<unsigned long long>(r.slab_fresh),
        static_cast<unsigned long long>(r.slab_reused),
        static_cast<unsigned long long>(r.slab_recycled));
    out += buf;
  }
  if (!cfg.faults.empty()) {
    std::snprintf(buf, sizeof buf,
                  "  faults: %zu spec(s)   fault drops: %llu (buffer drops "
                  "reported above)\n",
                  cfg.faults.size(),
                  static_cast<unsigned long long>(r.fault_drops));
    out += buf;
  }
  if (r.stability_analyzed) {
    std::snprintf(
        buf, sizeof buf,
        "  stability[%s]: regime=%s osc=%.3f sojourn_cv=%.3f "
        "mark_burst=%.2f (%llu ticks x %llu channels)\n",
        r.stability_channel.c_str(),
        std::string(obs::regime_name(r.stability.regime)).c_str(),
        r.stability.oscillation_score, r.stability.sojourn_cv,
        r.stability.mark_burstiness,
        static_cast<unsigned long long>(r.series_ticks),
        static_cast<unsigned long long>(r.series_channels));
    out += buf;
  }
  if (r.invariants_checked) {
    if (r.invariant_violations == 0) {
      std::snprintf(buf, sizeof buf, "  invariants: OK (%llu events checked)\n",
                    static_cast<unsigned long long>(r.invariant_events));
    } else {
      std::snprintf(buf, sizeof buf,
                    "  invariants: %llu VIOLATION(S) -- first: %s\n",
                    static_cast<unsigned long long>(r.invariant_violations),
                    r.invariant_message.c_str());
    }
    out += buf;
  }
  return out;
}

}  // namespace tcn::core
