// Central definitions of the dynamic-workload figures (6-13): one
// FigureDef per figure carrying its base experiment, scheme list, title and
// default grid, and run_figures, the one sweep-and-print path. bench/suite
// runs any subset of figure_suite() through it (--figure), and
// ablation_pifo and ablation_prob_tcn run a FigureDef of their own through
// it, so a figure's configuration and its tables exist exactly once.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace tcn::bench {

struct FigureDef {
  std::string name;   ///< short id: the --figure value and Job::group
  std::string title;  ///< table heading
  core::FctExperiment base;
  std::vector<SchemeRun> schemes;
  std::size_t flows = 2000;                          ///< default --flows
  std::vector<double> loads = {0.3, 0.5, 0.7, 0.9};  ///< default --loads
};

/// Figure 6: inter-service traffic isolation, DWRR (4 equal-quantum
/// queues), DCTCP, web search workload, loads 10-90%.
///
/// Paper shape: all schemes tie on overall and large-flow FCT; TCN and
/// MQ-ECN cut small-flow avg FCT by up to ~61% and p99 by up to ~73% vs
/// per-queue RED with the standard threshold; CoDel's slow reaction costs
/// it the p99.
inline FigureDef fig06() {
  FigureDef def;
  def.name = "fig06";
  def.title = "Fig. 6: service isolation, DWRR x4, DCTCP, web search";
  def.base = testbed_base();
  def.base.sched.kind = core::SchedKind::kDwrr;
  def.base.num_services = 4;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"MQ-ECN", core::Scheme::kMqEcn},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  return def;
}

/// Figure 7: isolation under WFQ (4 equal-weight queues). MQ-ECN is
/// excluded: it does not support WFQ (no rounds to measure) -- the gap TCN
/// closes.
inline FigureDef fig07() {
  FigureDef def;
  def.name = "fig07";
  def.title =
      "Fig. 7: service isolation, WFQ x4, DCTCP, web search (no MQ-ECN: "
      "unsupported scheduler)";
  def.base = testbed_base();
  def.base.sched.kind = core::SchedKind::kWfq;
  def.base.num_services = 4;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  return def;
}

/// Figure 8: traffic prioritization, SP (1) / DWRR (4), DCTCP, PIAS
/// two-priority tagging (first 100KB -> high priority).
///
/// Paper shape: small flows finish far faster than in Fig. 6 (they ride
/// the strict queue); TCN still beats per-queue standard RED by up to
/// 82.8% avg / 95.3% p99 for small flows because RED's buffer pressure
/// drops high-priority packets in the shared buffer, and beats CoDel's p99
/// by up to 84%.
inline FigureDef fig08() {
  FigureDef def;
  def.name = "fig08";
  def.title =
      "Fig. 8: prioritization, SP1/DWRR4 + PIAS, DCTCP, web search (no "
      "MQ-ECN: SP unsupported)";
  def.base = testbed_base();
  def.base.sched.kind = core::SchedKind::kSpDwrr;
  def.base.sched.num_sp = 1;
  def.base.pias = true;
  def.base.num_services = 4;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  return def;
}

/// Figure 9: prioritization under SP (1) / WFQ (4). Same expectations as
/// Fig. 8 with the WFQ inner scheduler.
inline FigureDef fig09() {
  FigureDef def;
  def.name = "fig09";
  def.title = "Fig. 9: prioritization, SP1/WFQ4 + PIAS, DCTCP, web search";
  def.base = testbed_base();
  def.base.sched.kind = core::SchedKind::kSpWfq;
  def.base.sched.num_sp = 1;
  def.base.pias = true;
  def.base.num_services = 4;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  return def;
}

namespace detail {
/// Re-run a testbed figure under an approximate rank scheduler (SP-PIFO or
/// AIFO). MQ-ECN is dropped from the scheme list when present: rank
/// schedulers have no rounds to measure. PIAS figures keep the priority
/// rank program the CLI would select (rank = queue index, queue 0 strict).
inline FigureDef rank_variant(FigureDef def, const std::string& suffix,
                              const std::string& sched_label,
                              core::SchedKind kind) {
  def.name += "-" + suffix;
  def.title += " [" + sched_label + "]";
  def.base.sched.kind = kind;
  if (def.base.pias) {
    def.base.sched.rank = core::RankProgram::kPriority;
    def.base.sched.num_sp = 1;
  }
  std::erase_if(def.schemes, [](const SchemeRun& s) {
    return s.scheme == core::Scheme::kMqEcn;
  });
  return def;
}
}  // namespace detail

/// Figs. 6-9 re-run over the approximate rank schedulers: the paper's
/// scheduler-agnosticism claim extended to SP-PIFO and AIFO columns.
inline FigureDef fig06_sp_pifo() {
  return detail::rank_variant(fig06(), "sp-pifo", "SP-PIFO x8 levels",
                              core::SchedKind::kSpPifo);
}
inline FigureDef fig06_aifo() {
  return detail::rank_variant(fig06(), "aifo", "AIFO W=128 k=0.1",
                              core::SchedKind::kAifo);
}
inline FigureDef fig07_sp_pifo() {
  return detail::rank_variant(fig07(), "sp-pifo", "SP-PIFO x8 levels",
                              core::SchedKind::kSpPifo);
}
inline FigureDef fig07_aifo() {
  return detail::rank_variant(fig07(), "aifo", "AIFO W=128 k=0.1",
                              core::SchedKind::kAifo);
}
inline FigureDef fig08_sp_pifo() {
  return detail::rank_variant(fig08(), "sp-pifo", "SP-PIFO + PIAS ranks",
                              core::SchedKind::kSpPifo);
}
inline FigureDef fig08_aifo() {
  return detail::rank_variant(fig08(), "aifo", "AIFO + PIAS ranks",
                              core::SchedKind::kAifo);
}
inline FigureDef fig09_sp_pifo() {
  return detail::rank_variant(fig09(), "sp-pifo", "SP-PIFO + PIAS ranks",
                              core::SchedKind::kSpPifo);
}
inline FigureDef fig09_aifo() {
  return detail::rank_variant(fig09(), "aifo", "AIFO + PIAS ranks",
                              core::SchedKind::kAifo);
}

namespace detail {
/// The leaf-spine figures' grid: 2000 flows is ~0.75s of arrivals (raise
/// it for tighter tails).
inline FigureDef leafspine_figure() {
  FigureDef def;
  def.base = leafspine_base();
  def.base.sched.kind = core::SchedKind::kSpDwrr;
  def.base.sched.num_sp = 1;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  def.loads = {0.6, 0.9};
  return def;
}
}  // namespace detail

/// Figure 10: large-scale leaf-spine (144 hosts, 12x12, 10G), SP (1) /
/// DWRR (7), DCTCP, PIAS; 144x143 host pairs partitioned into 7 services
/// cycling the four Fig. 4 workloads.
///
/// Paper shape: overall/large within ~1.5% of per-queue standard RED;
/// small flows up to 38% lower avg FCT and up to 94% lower p99 (timeouts
/// are the tail: RED with SP/DWRR suffered 589 small-flow timeouts at 90%
/// load, TCN only 46).
inline FigureDef fig10() {
  FigureDef def = detail::leafspine_figure();
  def.name = "fig10";
  def.title =
      "Fig. 10: leaf-spine, SP1/DWRR7 + PIAS, DCTCP, 4 workloads x 7 "
      "services";
  return def;
}

/// Figure 11: leaf-spine under SP (1) / WFQ (7). Same expectations as
/// Fig. 10 with the WFQ inner scheduler (which MQ-ECN cannot serve at all).
inline FigureDef fig11() {
  FigureDef def = detail::leafspine_figure();
  def.name = "fig11";
  def.title =
      "Fig. 11: leaf-spine, SP1/WFQ7 + PIAS, DCTCP, 4 workloads x 7 "
      "services";
  def.base.sched.kind = core::SchedKind::kSpWfq;
  return def;
}

/// Figure 12: transport robustness -- Fig. 10's setup with ECN* (plain ECN
/// TCP, halve on echo) instead of DCTCP; K = 84 packets, T = 101us.
///
/// Paper shape: ECN* is the most threshold-sensitive transport, yet TCN
/// stays within ~2% of per-queue standard RED on large flows while keeping
/// its big small-flow wins.
inline FigureDef fig12() {
  FigureDef def = detail::leafspine_figure();
  def.name = "fig12";
  def.title = "Fig. 12: leaf-spine, SP1/DWRR7 + PIAS, ECN* transport";
  def.base.tcp.cc = transport::CongestionControl::kEcnStar;
  def.base.params.rtt_lambda = 101 * sim::kMicrosecond;
  def.base.params.red_threshold_bytes = 84 * 1'500;
  return def;
}

/// Figure 13: queue-count robustness -- Fig. 12's setup with 32 switch
/// queues (1 strict + 31 equal-quantum DWRR); flows hash uniformly onto the
/// 31 service queues while keeping their service's size distribution.
///
/// Paper shape: per-queue standard RED degrades further with more queues
/// (4478 vs 2469 timeouts at 90% load); TCN's advantage on small flows
/// grows (38.7% -> 47.8% lower avg FCT).
inline FigureDef fig13() {
  FigureDef def = fig12();
  def.name = "fig13";
  def.title = "Fig. 13: leaf-spine, SP1/DWRR31 + PIAS, ECN*, 32 queues";
  def.base.num_service_queues = 31;
  return def;
}

/// Every FCT-sweep figure, in paper order, then the approximate-rank
/// scheduler variants of the testbed figures -- the suite binary's work
/// list.
inline std::vector<FigureDef> figure_suite() {
  return {fig06(),         fig07(),       fig08(),         fig09(),
          fig10(),         fig11(),       fig12(),         fig13(),
          fig06_sp_pifo(), fig06_aifo(),  fig07_sp_pifo(), fig07_aifo(),
          fig08_sp_pifo(), fig08_aifo(),  fig09_sp_pifo(), fig09_aifo()};
}

/// Runs every (figure x scheme x load) cell of `defs` as one sweep across
/// --jobs workers, prints each figure's panels in `defs` order and ends
/// with finish_sweep under `name`. `args.flows` = 0 and an empty
/// `args.sweep.loads` keep each figure's own grid; the seed, metrics and
/// grid axes apply to every figure. Returns the exit code.
inline int run_figures(const std::string& name,
                       const std::vector<FigureDef>& defs, const Args& args) {
  struct Slice {
    const FigureDef* def;
    std::size_t flows;
    std::vector<double> loads;
    std::size_t first;  // index of the slice's first job in the sweep
  };
  std::vector<Slice> slices;
  std::vector<runner::Job> jobs;
  for (const FigureDef& def : defs) {
    Slice slice{&def, args.flows > 0 ? args.flows : def.flows,
                args.sweep.loads.empty() ? def.loads : args.sweep.loads,
                jobs.size()};
    runner::SweepSpec spec;
    spec.name = def.name;
    spec.base = def.base;
    spec.base.num_flows = slice.flows;
    spec.base.seed = args.seed;
    spec.base.collect_metrics = !args.metrics_out.empty();
    spec.loads = slice.loads;
    spec.faults = args.sweep.fault_grid;
    spec.traffics = args.sweep.traffic_grid;
    for (const auto& s : def.schemes) {
      spec.schemes.emplace_back(s.name, s.scheme);
    }
    for (auto& job : spec.expand()) jobs.push_back(std::move(job));
    slices.push_back(std::move(slice));
  }

  std::fprintf(stderr, "%s: %zu runs across %zu figures\n", name.c_str(),
               jobs.size(), slices.size());
  const auto res = run_jobs(std::move(jobs), args, name);
  // A fault or traffic axis changes the grid layout the table printers
  // assume (load-major then scheme); the structured JSON carries those
  // cells.
  if (res.ok() && args.sweep.fault_grid.empty() &&
      args.sweep.traffic_grid.empty()) {
    for (const Slice& slice : slices) {
      print_fct_tables(slice.def->title, slice.def->schemes, slice.loads,
                       res.runs, slice.first, slice.flows, args.seed);
    }
  }
  return finish_sweep(res, name, args);
}

}  // namespace tcn::bench
