// Shared helpers for the figure-reproduction benches: the flag rows every
// fig*/ablation* binary uses, and the normalized-FCT table printer
// driven by the parallel sweep runner (src/runner). Every dynamic-workload
// figure is a scheme x load grid of independent core::FctExperiment runs,
// executed by runner::run_sweep across --jobs worker threads and aggregated
// by job index, so the printed tables and the optional BENCH_*.json are
// byte-identical for any job count.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "runner/flags.hpp"
#include "runner/journal.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"

namespace tcn::bench {

struct Args {
  std::size_t flows = 2000;
  std::uint64_t seed = 1;
  /// Collect per-run metrics and write the merged tcn-metrics-1 document
  /// here; empty = observability off, "-" = stdout. Byte-identical for any
  /// --jobs (merge is by job index).
  std::string metrics_out;
  /// The shared sweep flags (runner/flags.hpp); --jobs 0 = one worker per
  /// hardware thread.
  runner::SweepFlags sweep;

  Args() { sweep.loads = {0.3, 0.5, 0.7, 0.9}; }

  /// The rows every fig*/ablation* binary and bench/suite accept, writing
  /// into `a`.
  static runner::FlagTable flags(Args& a);
  /// Parses argv over `defaults`; prints --help and exits 0, or prints the
  /// reject and exits 2.
  static Args parse(int argc, char** argv, const Args& defaults);
};

inline runner::FlagTable Args::flags(Args& a) {
  runner::FlagTable table;
  table.push_back({"--flows", "N", "flows per run",
                   runner::number_setter(a.flows)});
  table.push_back({"--seed", "S", "base RNG seed",
                   runner::number_setter(a.seed)});
  runner::add_sweep_flags(table, a.sweep);
  table.push_back({"--metrics-out", "PATH",
                   "collect per-run observability metrics and write\n"
                   "the merged tcn-metrics-1 snapshot (\"-\" = stdout)",
                   runner::path_setter(a.metrics_out)});
  runner::add_grid_flags(table, a.sweep);
  return table;
}

inline Args Args::parse(int argc, char** argv, const Args& defaults) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Args a = defaults;
  const runner::FlagTable table = flags(a);
  if (runner::wants_help(args)) {
    std::printf("usage: %s [flags]\n%s", argv[0],
                runner::flags_usage(table).c_str());
    std::exit(0);
  }
  try {
    runner::parse_flags(table, args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  return a;
}

struct SchemeRun {
  std::string name;
  core::Scheme scheme;
};

/// runner::run_jobs with the options `args` ask for and a progress printer
/// (stderr, completion order -- progress lines are the one output allowed
/// to vary with --jobs). Exits 2, naming `name`, when the sweep cannot
/// start (an unreadable or mismatched --resume journal, say).
inline runner::SweepResult run_jobs(std::vector<runner::Job> jobs,
                                    const Args& args,
                                    const std::string& name) {
  runner::JournalData journal;
  try {
    runner::SweepOptions opt = runner::sweep_options(args.sweep, name, journal);
    opt.on_done = [](const runner::RunRecord& r) {
      if (r.skipped) return;
      if (!r.ok) {
        std::fprintf(stderr, "  [%s load=%.0f%%] FAILED: %s\n",
                     r.job.label.c_str(), r.job.cfg.load * 100,
                     r.error.c_str());
        return;
      }
      std::fprintf(stderr,
                   "  [%s load=%.0f%%] done (%zu/%zu flows, %.0f ms, "
                   "%.2fM ev/s)\n",
                   r.job.label.c_str(), r.job.cfg.load * 100,
                   r.report.flows_completed, r.job.cfg.num_flows, r.wall_ms,
                   r.events_per_sec / 1e6);
    };
    return runner::run_jobs(std::move(jobs), opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    std::exit(2);
  }
}

/// Prints the figure's four normalized panels plus the timeout table from
/// sweep records laid out load-major then scheme (SweepSpec::expand order
/// with a single seed and flow count). `first` is the index of the slice's
/// first record inside `runs` (nonzero when several figures share one
/// suite-wide sweep).
inline void print_fct_tables(const char* title,
                             const std::vector<SchemeRun>& schemes,
                             const std::vector<double>& loads,
                             const std::vector<runner::RunRecord>& runs,
                             std::size_t first, std::size_t flows,
                             std::uint64_t seed) {
  std::printf("=== %s ===\n", title);
  std::printf("flows/run=%zu seed=%llu\n\n", flows,
              static_cast<unsigned long long>(seed));

  const std::size_t num_schemes = schemes.size();
  auto rec = [&](std::size_t li, std::size_t si) -> const runner::RunRecord& {
    return runs[first + li * num_schemes + si];
  };

  auto panel = [&](const char* name, auto metric) {
    std::printf("-- %s (normalized to %s; >1 means worse) --\n", name,
                schemes[0].name.c_str());
    std::printf("%6s", "load");
    for (const auto& s : schemes) std::printf(" %12s", s.name.c_str());
    std::printf(" %14s\n", (schemes[0].name + " (us)").c_str());
    for (std::size_t li = 0; li < loads.size(); ++li) {
      std::printf("%5.0f%%", loads[li] * 100);
      const double ref = metric(rec(li, 0).report.summary);
      for (std::size_t si = 0; si < num_schemes; ++si) {
        const double v = metric(rec(li, si).report.summary);
        if (ref > 0) {
          std::printf(" %12.3f", v / ref);
        } else {
          std::printf(" %12s", "-");
        }
      }
      std::printf(" %14.1f\n", ref);
    }
    std::printf("\n");
  };

  panel("overall avg FCT",
        [](const stats::FctSummary& s) { return s.avg_all_us; });
  panel("small flows (0,100KB] avg FCT",
        [](const stats::FctSummary& s) { return s.avg_small_us; });
  panel("small flows 99th percentile FCT",
        [](const stats::FctSummary& s) { return s.p99_small_us; });
  panel("large flows (10MB,inf) avg FCT",
        [](const stats::FctSummary& s) { return s.avg_large_us; });

  std::printf("-- TCP timeouts of small flows / switch drops --\n");
  std::printf("%6s", "load");
  for (const auto& s : schemes) std::printf(" %18s", s.name.c_str());
  std::printf("\n");
  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::printf("%5.0f%%", loads[li] * 100);
    for (std::size_t si = 0; si < num_schemes; ++si) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu/%llu",
                    static_cast<unsigned long long>(
                        rec(li, si).report.summary.small_timeouts),
                    static_cast<unsigned long long>(
                        rec(li, si).report.switch_drops));
      std::printf(" %18s", buf);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

/// Build the scheme x load SweepSpec a figure bench runs.
inline runner::SweepSpec fct_sweep_spec(const char* name,
                                        core::FctExperiment base,
                                        const std::vector<SchemeRun>& schemes,
                                        const Args& args) {
  base.num_flows = args.flows;
  base.seed = args.seed;
  base.collect_metrics = !args.metrics_out.empty();
  runner::SweepSpec spec;
  spec.name = name;
  spec.base = std::move(base);
  spec.loads = args.sweep.loads;
  spec.faults = args.sweep.fault_grid;
  spec.traffics = args.sweep.traffic_grid;
  for (const auto& s : schemes) spec.schemes.emplace_back(s.name, s.scheme);
  return spec;
}

/// Runs `base` for every (scheme x load) across --jobs workers and prints
/// the figure's panels; writes BENCH json when --json was given. Returns an
/// exit code (nonzero when any run failed).
inline int run_fct_sweep(const char* name, const char* title,
                         core::FctExperiment base,
                         const std::vector<SchemeRun>& schemes,
                         const Args& args) {
  const auto res = run_jobs(
      fct_sweep_spec(name, std::move(base), schemes, args).expand(), args,
      name);
  const std::string& json = args.sweep.json;
  if (!res.ok()) {
    std::fprintf(stderr, "%s: %zu run(s) failed, %zu skipped\n", name,
                 res.failed, res.skipped);
    // Still write the JSON: a failed sweep's partial trajectory (with its
    // per-run error kinds) is evidence.
    if (!json.empty()) runner::write_json_file(res, name, json);
    return 1;
  }
  // A fault or traffic axis changes the grid layout the table printers
  // assume (load-major then scheme); print tables only for the plain shape.
  if (args.sweep.fault_grid.empty() && args.sweep.traffic_grid.empty()) {
    print_fct_tables(title, schemes, args.sweep.loads, res.runs, 0,
                     args.flows, args.seed);
  }
  if (!json.empty()) runner::write_json_file(res, name, json);
  if (!args.metrics_out.empty()) {
    runner::write_metrics_file(res, name, args.metrics_out);
  }
  return 0;
}

/// Common testbed configuration (Sec. 6.1): 9 servers, 1GbE, base RTT 250us,
/// 96KB shared buffer per port, DCTCP with RTOmin 10ms. Standard thresholds:
/// K = 32KB, T = 256us; CoDel tuned to target 51.2us / interval 1024us.
inline core::FctExperiment testbed_base() {
  core::FctExperiment cfg;
  cfg.topology = core::FctExperiment::Topology::kStarConverge;
  cfg.star.num_hosts = 9;
  cfg.star.link_rate_bps = 1'000'000'000;
  cfg.star.buffer_bytes = 96'000;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.params.rtt_lambda = 256 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.params.codel_target = static_cast<sim::Time>(51.2 * sim::kMicrosecond);
  cfg.params.codel_interval = 1024 * sim::kMicrosecond;
  cfg.tcp.cc = transport::CongestionControl::kDctcp;
  cfg.tcp.rto_min = 10 * sim::kMillisecond;
  cfg.tcp.rto_init = 10 * sim::kMillisecond;
  cfg.tcp.init_cwnd_pkts = 10;
  cfg.num_services = 4;
  cfg.service_workloads = {workload::Kind::kWebSearch};
  cfg.time_limit = 600 * sim::kSecond;
  return cfg;
}

/// Common large-scale configuration (Sec. 6.2): 144-host leaf-spine, 10G,
/// 300KB shared buffer, 8 queues, DCTCP (init window 16, RTOmin 5ms),
/// K = 65 packets ~= 97.5KB, T = 78us; 7 services cycling the 4 workloads.
inline core::FctExperiment leafspine_base() {
  core::FctExperiment cfg;
  cfg.topology = core::FctExperiment::Topology::kLeafSpine;
  cfg.leaf_spine = topo::LeafSpineConfig{};  // paper defaults
  cfg.params.rtt_lambda = 78 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 65 * 1'500;
  cfg.params.codel_target = static_cast<sim::Time>(17 * sim::kMicrosecond);
  cfg.params.codel_interval = 341 * sim::kMicrosecond;  // ~4x base RTT
  cfg.tcp.cc = transport::CongestionControl::kDctcp;
  cfg.tcp.rto_min = 5 * sim::kMillisecond;
  cfg.tcp.rto_init = 5 * sim::kMillisecond;
  cfg.tcp.init_cwnd_pkts = 16;
  cfg.num_services = 7;
  cfg.service_workloads = {workload::Kind::kWebSearch,
                           workload::Kind::kDataMining,
                           workload::Kind::kHadoop, workload::Kind::kCache};
  cfg.pias = true;
  // ns-2 convention: every flow is its own TCP connection.
  cfg.persistent_connections = false;
  cfg.time_limit = 600 * sim::kSecond;
  return cfg;
}

}  // namespace tcn::bench
