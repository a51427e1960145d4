// Ablation A4: the "generic scheduler" claim. TCN runs unmodified under a
// PIFO programmable scheduler executing an STFQ rank program (Sivaraman et
// al.) -- a scheduler MQ-ECN cannot support and for which no static RED
// threshold is correct. Compares TCN against per-queue standard RED under
// the same PIFO program.
#include <cstdio>

#include "bench_util.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::Args defaults;
  defaults.flows = 400;
  defaults.sweep.loads = {0.5, 0.8};
  const auto args = bench::Args::parse(argc, argv, defaults);

  auto base = bench::testbed_base();
  base.sched.kind = core::SchedKind::kPifoStfq;

  const int rc = bench::run_fct_sweep(
      "ablation_pifo",
      "Ablation: TCN under a PIFO scheduler running an STFQ program "
      "(web search, 4 services)",
      base,
      {{"TCN", core::Scheme::kTcn},
       {"CoDel", core::Scheme::kCodel},
       {"RED-queue", core::Scheme::kRedPerQueue}},
      args);
  if (rc != 0) return rc;
  std::printf("Expected shape: same ordering as Fig. 6/7 -- TCN needs no "
              "changes for a programmable scheduler,\nwhile the static "
              "standard threshold keeps hurting small flows.\n");
  return 0;
}
