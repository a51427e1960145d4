// Ablation A1: TCN threshold sensitivity. T = RTT x lambda is the standard
// setting (Eq. 3); this sweep shows the latency/throughput tradeoff around
// it: smaller T cuts small-flow latency but starts costing large-flow
// throughput; larger T drifts toward standard-RED latency.
//
// The five threshold points at each load are independent runs, so they
// execute as one runner job list across --jobs workers; the printed tables
// are aggregated by job index and thus identical for any job count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::Args args;
  args.flows = 400;
  args.sweep.loads = {0.7};
  bench::parse_or_exit(argc, argv, bench::Args::flags(args));

  // Threshold-major: each threshold is one TCN sweep over the loads (and
  // the --fault-grid / --traffic-grid cells, innermost).
  const std::vector<sim::Time> thresholds_us = {64, 128, 256, 512, 1024};
  std::vector<runner::Job> jobs;
  for (const sim::Time t_us : thresholds_us) {
    runner::SweepSpec spec;
    spec.name = "ablation_tcn_threshold";
    spec.base = bench::testbed_base();
    spec.base.sched.kind = core::SchedKind::kDwrr;
    spec.base.params.rtt_lambda = t_us * sim::kMicrosecond;
    spec.base.num_flows = args.flows;
    spec.base.seed = args.seed;
    spec.base.collect_metrics = !args.metrics_out.empty();
    spec.schemes = {{"T=" + std::to_string(t_us) + "us", core::Scheme::kTcn}};
    spec.loads = args.sweep.loads;
    spec.faults = args.sweep.fault_grid;
    spec.traffics = args.sweep.traffic_grid;
    for (auto& job : spec.expand()) jobs.push_back(std::move(job));
  }

  const auto res =
      bench::run_jobs(std::move(jobs), args, "ablation_tcn_threshold");
  // As in run_figures, a fault or traffic axis has no place in the table;
  // the JSON carries those cells.
  const std::vector<double>& loads = args.sweep.loads;
  if (res.ok() && args.sweep.fault_grid.empty() &&
      args.sweep.traffic_grid.empty()) {
    for (std::size_t li = 0; li < loads.size(); ++li) {
      if (li > 0) std::printf("\n");
      std::printf("=== Ablation: TCN sojourn threshold sweep (testbed "
                  "isolation setup, DWRR x4, web search, load %.0f%%) "
                  "===\n\n",
                  loads[li] * 100);
      std::printf("%10s | %12s | %12s | %12s | %12s | %10s\n", "T (us)",
                  "avg all us", "avg small us", "p99 small us",
                  "avg large us", "marks");
      for (std::size_t ti = 0; ti < thresholds_us.size(); ++ti) {
        const auto& report = res.runs[ti * loads.size() + li].report;
        std::printf("%10lld | %12.1f | %12.1f | %12.1f | %12.1f | %10llu\n",
                    static_cast<long long>(thresholds_us[ti]),
                    report.summary.avg_all_us, report.summary.avg_small_us,
                    report.summary.p99_small_us, report.summary.avg_large_us,
                    static_cast<unsigned long long>(report.switch_marks));
      }
    }
    std::printf("\nExpected shape: small-flow FCT grows with T; large-flow "
                "FCT suffers when T is far below the base RTT\n(premature "
                "marks throttle throughput). T ~= RTT x lambda (256us here) "
                "balances both -- the paper's setting.\n");
  }
  return bench::finish_sweep(res, "ablation_tcn_threshold", args);
}
