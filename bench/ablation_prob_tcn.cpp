// Ablation A3: probabilistic TCN (Sec. 4.3) vs single-threshold TCN.
// RED-like marking (Tmin/Tmax/Pmax) trades a slightly longer tail for
// gentler marking -- the profile transports like DCQCN need for fairness.
#include <cstdio>

#include "bench_util.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::Args defaults;
  defaults.flows = 400;
  defaults.sweep.loads = {0.5, 0.8};
  const auto args = bench::Args::parse(argc, argv, defaults);

  auto base = bench::testbed_base();
  base.sched.kind = core::SchedKind::kDwrr;
  base.params.tcn_tmin = 128 * sim::kMicrosecond;
  base.params.tcn_tmax = 384 * sim::kMicrosecond;
  base.params.tcn_pmax = 1.0;

  const int rc = bench::run_fct_sweep(
      "ablation_prob_tcn",
      "Ablation: probabilistic TCN (Tmin=128us, Tmax=384us, Pmax=1) vs "
      "single-threshold TCN (T=256us)",
      base,
      {{"TCN", core::Scheme::kTcn}, {"TCN-prob", core::Scheme::kTcnProb}},
      args);
  if (rc != 0) return rc;
  std::printf("Expected shape: near-identical columns -- the probabilistic "
              "extension preserves TCN's behaviour\nwhile providing the "
              "smooth marking curve DCQCN-class transports need.\n");
  return 0;
}
