// Central definitions of the dynamic-workload figures (6-13): one
// FigureDef per figure carrying its base experiment, scheme list, title and
// per-figure CLI defaults. The fig* binaries and the suite runner
// (bench/suite.cpp) share these so a figure's configuration exists exactly
// once.
#pragma once

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace tcn::bench {

struct FigureDef {
  const char* name;   ///< short id, used for Job::group and JSON names
  const char* title;  ///< table heading
  core::FctExperiment base;
  std::vector<SchemeRun> schemes;
  Args defaults;  ///< per-figure flows/loads defaults
};

/// Figure 6: inter-service traffic isolation, DWRR (4 equal-quantum
/// queues), DCTCP, web search workload, loads 10-90%.
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

/// Figure 7: isolation under WFQ. MQ-ECN is excluded: it does not support
/// WFQ (no rounds to measure) -- the gap TCN closes.
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

/// Figure 9: prioritization under SP/WFQ.
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
inline FigureDef rank_variant(FigureDef def, const char* suffix,
                              const char* sched_label,
                              core::SchedKind kind) {
  // Deques: push_back never moves earlier strings, so the c_str() pointers
  // handed to FigureDef stay valid for the life of the program.
  static std::deque<std::string> names;
  names.push_back(std::string(def.name) + "-" + suffix);
  def.name = names.back().c_str();
  static std::deque<std::string> titles;
  titles.push_back(std::string(def.title) + " [" + sched_label + "]");
  def.title = titles.back().c_str();
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
inline Args leafspine_defaults() {
  Args a;
  a.flows = 2000;  // ~0.75s of arrivals; raise for tighter tails
  a.sweep.loads = {0.6, 0.9};
  return a;
}
}  // namespace detail

/// Figure 10: large-scale leaf-spine (144 hosts, 12x12, 10G), SP (1) /
/// DWRR (7), DCTCP, PIAS; 7 services cycling the four Fig. 4 workloads.
inline FigureDef fig10() {
  FigureDef def;
  def.name = "fig10";
  def.title =
      "Fig. 10: leaf-spine, SP1/DWRR7 + PIAS, DCTCP, 4 workloads x 7 "
      "services";
  def.base = leafspine_base();
  def.base.sched.kind = core::SchedKind::kSpDwrr;
  def.base.sched.num_sp = 1;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  def.defaults = detail::leafspine_defaults();
  return def;
}

/// Figure 11: leaf-spine under SP/WFQ.
inline FigureDef fig11() {
  FigureDef def;
  def.name = "fig11";
  def.title =
      "Fig. 11: leaf-spine, SP1/WFQ7 + PIAS, DCTCP, 4 workloads x 7 "
      "services";
  def.base = leafspine_base();
  def.base.sched.kind = core::SchedKind::kSpWfq;
  def.base.sched.num_sp = 1;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  def.defaults = detail::leafspine_defaults();
  return def;
}

/// Figure 12: transport robustness -- Fig. 10's setup with ECN* (plain ECN
/// TCP, halve on echo) instead of DCTCP; K = 84 packets, T = 101us.
inline FigureDef fig12() {
  FigureDef def;
  def.name = "fig12";
  def.title = "Fig. 12: leaf-spine, SP1/DWRR7 + PIAS, ECN* transport";
  def.base = leafspine_base();
  def.base.sched.kind = core::SchedKind::kSpDwrr;
  def.base.sched.num_sp = 1;
  def.base.tcp.cc = transport::CongestionControl::kEcnStar;
  def.base.params.rtt_lambda = 101 * sim::kMicrosecond;
  def.base.params.red_threshold_bytes = 84 * 1'500;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  def.defaults = detail::leafspine_defaults();
  return def;
}

/// Figure 13: queue-count robustness -- Fig. 12's setup with 32 switch
/// queues (1 strict + 31 DWRR), flows hashed uniformly onto the 31 service
/// queues.
inline FigureDef fig13() {
  FigureDef def;
  def.name = "fig13";
  def.title = "Fig. 13: leaf-spine, SP1/DWRR31 + PIAS, ECN*, 32 queues";
  def.base = leafspine_base();
  def.base.sched.kind = core::SchedKind::kSpDwrr;
  def.base.sched.num_sp = 1;
  def.base.num_service_queues = 31;
  def.base.tcp.cc = transport::CongestionControl::kEcnStar;
  def.base.params.rtt_lambda = 101 * sim::kMicrosecond;
  def.base.params.red_threshold_bytes = 84 * 1'500;
  def.schemes = {{"TCN", core::Scheme::kTcn},
                 {"CoDel", core::Scheme::kCodel},
                 {"RED-queue", core::Scheme::kRedPerQueue}};
  def.defaults = detail::leafspine_defaults();
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

/// Run one figure standalone (the fig* binaries' main).
inline int run_figure(const FigureDef& def, const Args& args) {
  return run_fct_sweep(def.name, def.title, def.base, def.schemes, args);
}

}  // namespace tcn::bench
