// Shared helpers for the figure-reproduction benches: the one parse-or-exit
// helper every bench parses its own rows through, the rows of the FCT sweep
// front ends (bench/suite and the sweep ablations), and the normalized-FCT
// table printer driven by the parallel sweep runner (src/runner). Every
// dynamic-workload figure is a scheme x load grid of independent
// core::FctExperiment runs, executed by runner::run_jobs across --jobs
// worker threads and aggregated by job index, so the printed tables and the
// optional BENCH_*.json are byte-identical for any job count.
#pragma once

#include <cstdint>
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

/// Applies argv to `table`: prints --help and exits 0, or prints the
/// reject and exits 2. A bench's table holds only the rows it reads, so
/// any other flag is a reject.
inline void parse_or_exit(int argc, char** argv,
                          const runner::FlagTable& table) {
  const std::vector<std::string> args(argv + 1, argv + argc);
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
}

/// What the FCT sweep front ends read: bench/suite, ablation_pifo,
/// ablation_prob_tcn and ablation_tcn_threshold.
struct Args {
  /// Flows per run; 0 = each figure's own default (run_figures).
  std::size_t flows = 0;
  std::uint64_t seed = 1;
  /// Collect per-run metrics and write the merged tcn-metrics-1 document
  /// here; empty = observability off, "-" = stdout. Byte-identical for any
  /// --jobs (merge is by job index).
  std::string metrics_out;
  /// The shared sweep flags (runner/flags.hpp); --jobs 0 = one worker per
  /// hardware thread; empty --loads = each figure's own (run_figures).
  runner::SweepFlags sweep;

  /// The rows of those front ends, writing into `a`.
  static runner::FlagTable flags(Args& a);
};

inline runner::FlagTable Args::flags(Args& a) {
  runner::FlagTable table;
  table.push_back({"--flows", "N",
                   "flows per run (default " +
                       (a.flows == 0 ? std::string("each figure's own")
                                     : std::to_string(a.flows)) +
                       ")",
                   runner::number_setter(a.flows)});
  table.push_back({"--seed", "S", "base RNG seed",
                   runner::number_setter(a.seed)});
  runner::add_sweep_flags(table, a.sweep);
  // add_sweep_flags shows no default for an empty --loads.
  if (a.sweep.loads.empty()) {
    for (runner::Flag& row : table) {
      if (row.name == "--loads") row.help += " (default each figure's own)";
    }
  }
  table.push_back({"--metrics-out", "PATH",
                   "collect per-run observability metrics and write\n"
                   "the merged tcn-metrics-1 snapshot (\"-\" = stdout)",
                   runner::path_setter(a.metrics_out)});
  runner::add_grid_flags(table, a.sweep);
  return table;
}

struct SchemeRun {
  std::string name;
  core::Scheme scheme;
};

/// runner::run_jobs with the options `args` ask for and a progress printer
/// (stderr, completion order -- progress lines are the one output allowed
/// to vary with --jobs). When the sweep throws it prints
/// `<name>: <message>` and exits: 2 for a rejected input (an unreadable or
/// mismatched --resume journal, say), 1 for any other failure (a journal
/// that cannot be written).
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
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    std::exit(2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    std::exit(1);
  }
}

/// Prints the figure's four normalized panels plus the timeout table from
/// sweep records laid out load-major then scheme (SweepSpec::expand order
/// with a single seed and flow count). `first` is the index of the slice's
/// first record inside `runs` (nonzero when several figures share one
/// suite-wide sweep).
inline void print_fct_tables(const std::string& title,
                             const std::vector<SchemeRun>& schemes,
                             const std::vector<double>& loads,
                             const std::vector<runner::RunRecord>& runs,
                             std::size_t first, std::size_t flows,
                             std::uint64_t seed) {
  std::printf("=== %s ===\n", title.c_str());
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

/// Ends a sweep front end: lists the failed runs, writes --json (even for
/// a failed sweep: its partial trajectory, with per-run error kinds, is
/// evidence) and, when every run succeeded, --metrics-out. Returns the exit
/// code: 0, or 1 when a run failed or a write failed; a failed write is
/// printed as `<name>: <message naming the path>`.
inline int finish_sweep(const runner::SweepResult& res, const std::string& name,
                        const Args& args) {
  if (!res.ok()) {
    std::fprintf(stderr, "%s: %zu run(s) failed, %zu skipped\n", name.c_str(),
                 res.failed, res.skipped);
    for (const auto& r : res.runs) {
      if (!r.ok && !r.skipped) {
        std::fprintf(stderr, "  %s/%s load=%.0f%%: %s [%.*s]\n",
                     r.job.group.c_str(), r.job.label.c_str(),
                     r.job.cfg.load * 100, r.error.c_str(),
                     static_cast<int>(
                         runner::error_kind_name(r.error_kind).size()),
                     runner::error_kind_name(r.error_kind).data());
      }
    }
  } else {
    std::fprintf(stderr, "%s: %zu runs ok in %.1f s (%zu workers)%s%s\n",
                 name.c_str(), res.runs.size(), res.wall_ms / 1000.0,
                 res.jobs_used, args.sweep.json.empty() ? "" : ", json -> ",
                 args.sweep.json.c_str());
  }
  try {
    if (!args.sweep.json.empty()) {
      runner::write_json_file(res, name, args.sweep.json);
    }
    if (res.ok() && !args.metrics_out.empty()) {
      runner::write_metrics_file(res, name, args.metrics_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    return 1;
  }
  return res.ok() ? 0 : 1;
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
