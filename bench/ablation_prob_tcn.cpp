// Ablation A3: probabilistic TCN (Sec. 4.3) vs single-threshold TCN.
// RED-like marking (Tmin/Tmax/Pmax) trades a slightly longer tail for
// gentler marking -- the profile transports like DCQCN need for fairness.
#include <cstdio>

#include "figures.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::FigureDef def;
  def.name = "ablation_prob_tcn";
  def.title =
      "Ablation: probabilistic TCN (Tmin=128us, Tmax=384us, Pmax=1) vs "
      "single-threshold TCN (T=256us)";
  def.base = bench::testbed_base();
  def.base.sched.kind = core::SchedKind::kDwrr;
  def.base.params.tcn_tmin = 128 * sim::kMicrosecond;
  def.base.params.tcn_tmax = 384 * sim::kMicrosecond;
  def.base.params.tcn_pmax = 1.0;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"TCN-prob", core::Scheme::kTcnProb}};
  def.flows = 400;
  def.loads = {0.5, 0.8};

  bench::Args args;
  args.flows = def.flows;
  args.sweep.loads = def.loads;
  bench::parse_or_exit(argc, argv, bench::Args::flags(args));
  const int rc = bench::run_figures(def.name, {def}, args);
  if (rc != 0) return rc;
  std::printf("Expected shape: near-identical columns -- the probabilistic "
              "extension preserves TCN's behaviour\nwhile providing the "
              "smooth marking curve DCQCN-class transports need.\n");
  return 0;
}
