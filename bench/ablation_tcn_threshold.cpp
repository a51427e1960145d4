// Ablation A1: TCN threshold sensitivity. T = RTT x lambda is the standard
// setting (Eq. 3); this sweep shows the latency/throughput tradeoff around
// it: smaller T cuts small-flow latency but starts costing large-flow
// throughput; larger T drifts toward standard-RED latency.
//
// The five threshold points are independent runs, so they execute as one
// runner job list across --jobs workers; the printed table is aggregated by
// job index and thus identical for any job count.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::Args defaults;
  defaults.flows = 400;
  defaults.sweep.loads = {0.7};
  const auto args = bench::Args::parse(argc, argv, defaults);
  const double load = args.sweep.loads[0];

  const std::vector<sim::Time> thresholds_us = {64, 128, 256, 512, 1024};
  std::vector<runner::Job> jobs;
  for (const sim::Time t_us : thresholds_us) {
    runner::Job j;
    j.group = "ablation_tcn_threshold";
    j.label = "T=" + std::to_string(t_us) + "us";
    j.cfg = bench::testbed_base();
    j.cfg.sched.kind = core::SchedKind::kDwrr;
    j.cfg.scheme = core::Scheme::kTcn;
    j.cfg.params.rtt_lambda = t_us * sim::kMicrosecond;
    j.cfg.load = load;
    j.cfg.num_flows = args.flows;
    j.cfg.seed = args.seed;
    jobs.push_back(std::move(j));
  }

  const auto res =
      bench::run_jobs(std::move(jobs), args, "ablation_tcn_threshold");
  if (!res.ok()) {
    std::fprintf(stderr, "ablation_tcn_threshold: %zu run(s) failed\n",
                 res.failed);
    return 1;
  }

  std::printf("=== Ablation: TCN sojourn threshold sweep (testbed isolation "
              "setup, DWRR x4, web search, load %.0f%%) ===\n\n",
              load * 100);
  std::printf("%10s | %12s | %12s | %12s | %12s | %10s\n", "T (us)",
              "avg all us", "avg small us", "p99 small us", "avg large us",
              "marks");
  for (std::size_t i = 0; i < res.runs.size(); ++i) {
    const auto& report = res.runs[i].report;
    std::printf("%10lld | %12.1f | %12.1f | %12.1f | %12.1f | %10llu\n",
                static_cast<long long>(thresholds_us[i]),
                report.summary.avg_all_us, report.summary.avg_small_us,
                report.summary.p99_small_us, report.summary.avg_large_us,
                static_cast<unsigned long long>(report.switch_marks));
  }
  std::printf("\nExpected shape: small-flow FCT grows with T; large-flow FCT "
              "suffers when T is far below the base RTT\n(premature marks "
              "throttle throughput). T ~= RTT x lambda (256us here) balances "
              "both -- the paper's setting.\n");
  if (!args.sweep.json.empty()) {
    runner::write_json_file(res, "ablation_tcn_threshold", args.sweep.json);
  }
  return 0;
}
