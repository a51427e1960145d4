// Ablation A4: the "generic scheduler" claim. TCN runs unmodified under a
// PIFO programmable scheduler executing an STFQ rank program (Sivaraman et
// al.) -- a scheduler MQ-ECN cannot support and for which no static RED
// threshold is correct. Compares TCN against per-queue standard RED under
// the same PIFO program.
#include <cstdio>

#include "figures.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::FigureDef def;
  def.name = "ablation_pifo";
  def.title =
      "Ablation: TCN under a PIFO scheduler running an STFQ program (web "
      "search, 4 services)";
  def.base = bench::testbed_base();
  def.base.sched.kind = core::SchedKind::kPifoStfq;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  def.flows = 400;
  def.loads = {0.5, 0.8};

  bench::Args args;
  args.flows = def.flows;
  args.sweep.loads = def.loads;
  bench::parse_or_exit(argc, argv, bench::Args::flags(args));
  const int rc = bench::run_figures(def.name, {def}, args);
  if (rc != 0) return rc;
  std::printf("Expected shape: same ordering as Fig. 6/7 -- TCN needs no "
              "changes for a programmable scheduler,\nwhile the static "
              "standard threshold keeps hurting small flows.\n");
  return 0;
}
