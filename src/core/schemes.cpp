#include "core/schemes.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "aqm/codel.hpp"
#include "aqm/mq_ecn.hpp"
#include "aqm/pie.hpp"
#include "aqm/rate_estimator.hpp"
#include "aqm/red_ecn.hpp"
#include "aqm/tcn.hpp"
#include "net/fifo_scheduler.hpp"
#include "sched/aifo.hpp"
#include "sched/dwrr.hpp"
#include "sched/pifo.hpp"
#include "sched/rank.hpp"
#include "sched/sp_pifo.hpp"
#include "sched/sp.hpp"
#include "sched/sp_hybrid.hpp"
#include "sched/wfq.hpp"
#include "sched/wrr.hpp"

namespace tcn::core {

namespace {

using MarkerPtr = std::unique_ptr<net::Marker>;
using SchedulerPtr = std::unique_ptr<net::Scheduler>;

constexpr SchemeRow kSchemes[] = {
    {Scheme::kTcn, "tcn", "TCN",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<aqm::TcnMarker>(p.rtt_lambda);
     }},
    {Scheme::kTcnProb, "tcn-prob", "TCN-prob",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<aqm::TcnProbabilisticMarker>(
           p.tcn_tmin, p.tcn_tmax, p.tcn_pmax, p.seed);
     }},
    {Scheme::kCodel, "codel", "CoDel",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<aqm::CodelMarker>(p.codel_target,
                                                 p.codel_interval);
     }},
    {Scheme::kMqEcn, "mq-ecn", "MQ-ECN",
     [](const SchemeParams& p, net::Scheduler& s,
        const net::PortConfig&) -> MarkerPtr {
       auto* provider = dynamic_cast<net::RoundRateProvider*>(&s);
       if (provider == nullptr) {
         throw std::invalid_argument(
             "MQ-ECN only supports round-robin schedulers (Sec. 3.3)");
       }
       return std::make_unique<aqm::MqEcnMarker>(provider, p.rtt_lambda);
     }},
    {Scheme::kRedPerQueue, "red", "RED-queue",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<aqm::RedEcnMarker>(p.red_threshold_bytes,
                                                  aqm::RedScope::kPerQueue);
     }},
    {Scheme::kRedPerPort, "red-port", "RED-port",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<aqm::RedEcnMarker>(p.red_threshold_bytes,
                                                  aqm::RedScope::kPerPort);
     }},
    {Scheme::kRedDequeue, "red-dequeue", "RED-deq",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<aqm::RedEcnMarker>(p.red_threshold_bytes,
                                                  aqm::RedScope::kPerQueue,
                                                  aqm::RedSide::kDequeue);
     }},
    {Scheme::kPie, "pie", "PIE",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig& port) -> MarkerPtr {
       aqm::PieConfig pie;
       pie.target = p.pie_target > 0 ? p.pie_target : p.rtt_lambda / 5;
       pie.t_update = p.pie_update > 0 ? p.pie_update : p.rtt_lambda / 2;
       pie.dq_thresh = p.dq_thresh;
       pie.ewma_w = p.ewma_w;
       return std::make_unique<aqm::PieMarker>(port.num_queues, pie, p.seed);
     }},
    {Scheme::kIdealRate, "ideal-rate", "Ideal-rate",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig& port) -> MarkerPtr {
       return std::make_unique<aqm::IdealRedMarker>(
           port.num_queues, p.dq_thresh, p.rtt_lambda, p.ewma_w);
     }},
    {Scheme::kIdealOracle, "", "Ideal-oracle",
     [](const SchemeParams& p, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<aqm::RedEcnMarker>(p.oracle_thresholds);
     }},
    {Scheme::kNone, "none", "DropTail",
     [](const SchemeParams&, net::Scheduler&,
        const net::PortConfig&) -> MarkerPtr {
       return std::make_unique<net::NullMarker>();
     }},
};

std::unique_ptr<sched::DwrrScheduler> make_dwrr(const SchedConfig& cfg) {
  return std::make_unique<sched::DwrrScheduler>(
      std::vector<std::uint64_t>(cfg.num_queues, cfg.quantum),
      cfg.mq_ecn_beta);
}

std::unique_ptr<sched::WfqScheduler> make_wfq(const SchedConfig& cfg) {
  return std::make_unique<sched::WfqScheduler>(
      std::vector<double>(cfg.num_queues, 1.0));
}

/// Rank program for the approximate rank schedulers, per SchedConfig::rank.
sched::RankProgram make_rank_program(const SchedConfig& cfg) {
  switch (cfg.rank) {
    case RankProgram::kStfq:
      return sched::stfq_rank_program(
          std::vector<double>(cfg.num_queues, 1.0));
    case RankProgram::kPriority:
      return sched::priority_rank_program();
  }
  throw std::invalid_argument("make_rank_program: bad rank program");
}

void check_hybrid(const SchedConfig& cfg) {
  if (cfg.num_sp >= cfg.num_queues) {
    throw std::invalid_argument("SchedConfig: num_sp must be < num_queues");
  }
}

constexpr SchedRow kScheds[] = {
    {SchedKind::kFifo, "fifo", "", "FIFO",
     [](const SchedConfig&) -> SchedulerPtr {
       return std::make_unique<net::FifoScheduler>();
     }},
    {SchedKind::kSp, "sp", "", "SP",
     [](const SchedConfig&) -> SchedulerPtr {
       return std::make_unique<sched::SpScheduler>();
     }},
    {SchedKind::kDwrr, "dwrr", "", "DWRR",
     [](const SchedConfig& cfg) -> SchedulerPtr { return make_dwrr(cfg); }},
    {SchedKind::kWrr, "wrr", "", "WRR",
     [](const SchedConfig& cfg) -> SchedulerPtr {
       return std::make_unique<sched::WrrScheduler>(
           std::vector<std::uint32_t>(cfg.num_queues, 1));
     }},
    {SchedKind::kWfq, "wfq", "", "WFQ",
     [](const SchedConfig& cfg) -> SchedulerPtr { return make_wfq(cfg); }},
    {SchedKind::kSpDwrr, "sp-dwrr", "", "SP/DWRR",
     [](const SchedConfig& cfg) -> SchedulerPtr {
       return std::make_unique<sched::SpHybridScheduler>(cfg.num_sp,
                                                         make_dwrr(cfg));
     },
     check_hybrid},
    {SchedKind::kSpWfq, "sp-wfq", "", "SP/WFQ",
     [](const SchedConfig& cfg) -> SchedulerPtr {
       return std::make_unique<sched::SpHybridScheduler>(cfg.num_sp,
                                                         make_wfq(cfg));
     },
     check_hybrid},
    {SchedKind::kPifoStfq, "pifo", "", "PIFO-STFQ",
     [](const SchedConfig& cfg) -> SchedulerPtr {
       return std::make_unique<sched::PifoScheduler>(
           sched::stfq_rank_program(std::vector<double>(cfg.num_queues, 1.0)));
     }},
    {SchedKind::kSpPifo, "sp-pifo", "[:levels]", "SP-PIFO",
     [](const SchedConfig& cfg) -> SchedulerPtr {
       return std::make_unique<sched::SpPifoScheduler>(cfg.sp_pifo_levels,
                                                       make_rank_program(cfg));
     },
     [](const SchedConfig& cfg) {
       if (cfg.sp_pifo_levels < 2) {
         throw std::invalid_argument(
             "SchedConfig: sp_pifo_levels must be >= 2");
       }
     }},
    {SchedKind::kAifo, "aifo", "[:window,k]", "AIFO",
     [](const SchedConfig& cfg) -> SchedulerPtr {
       return std::make_unique<sched::AifoScheduler>(
           cfg.aifo_window, cfg.aifo_k, make_rank_program(cfg));
     },
     [](const SchedConfig& cfg) {
       if (cfg.aifo_window < 1) {
         throw std::invalid_argument("SchedConfig: aifo_window must be >= 1");
       }
       if (!(cfg.aifo_k >= 0.0 && cfg.aifo_k < 1.0)) {
         throw std::invalid_argument("SchedConfig: aifo_k must be in [0, 1)");
       }
     }},
};

/// The row of `kind`, or null when the value has none.
template <typename Row, typename Kind>
const Row* find_row(std::span<const Row> rows, Kind kind) {
  const auto it = std::ranges::find(rows, kind, &Row::kind);
  return it == rows.end() ? nullptr : &*it;
}

}  // namespace

std::span<const SchemeRow> scheme_rows() { return kSchemes; }
std::span<const SchedRow> sched_rows() { return kScheds; }

topo::SchedulerFactory make_scheduler_factory(const SchedConfig& cfg) {
  if (cfg.num_queues == 0) {
    throw std::invalid_argument("SchedConfig: num_queues must be >= 1");
  }
  const SchedRow* row = find_row(sched_rows(), cfg.kind);
  if (row == nullptr) {
    throw std::invalid_argument("make_scheduler_factory: bad kind");
  }
  if (row->check != nullptr) row->check(cfg);
  return [make = row->make, cfg] { return make(cfg); };
}

topo::MarkerFactory make_marker_factory(Scheme scheme,
                                        const SchemeParams& p) {
  const SchemeRow* row = find_row(scheme_rows(), scheme);
  if (row == nullptr) {
    throw std::invalid_argument("make_marker_factory: bad scheme");
  }
  return [make = row->make, p](net::Scheduler& s,
                               const net::PortConfig& port) {
    return make(p, s, port);
  };
}

std::string scheme_name(Scheme s) {
  const SchemeRow* row = find_row(scheme_rows(), s);
  return row == nullptr ? "?" : std::string(row->display);
}

std::string sched_name(SchedKind k) {
  const SchedRow* row = find_row(sched_rows(), k);
  return row == nullptr ? "?" : std::string(row->display);
}

Scheme parse_scheme(const std::string& name) {
  for (const SchemeRow& row : scheme_rows()) {
    if (!row.cli.empty() && row.cli == name) return row.kind;
  }
  throw std::invalid_argument("unknown scheme '" + name + "' (" +
                              scheme_cli_names(", ") + ")");
}

SchedKind parse_sched(const std::string& name) {
  for (const SchedRow& row : sched_rows()) {
    if (row.cli == name) return row.kind;
  }
  throw std::invalid_argument("unknown scheduler '" + name + "' (" +
                              sched_cli_names(", ") + ")");
}

std::string scheme_cli_names(std::string_view sep) {
  std::string out;
  for (const SchemeRow& row : scheme_rows()) {
    if (row.cli.empty()) continue;  // no flag selects it
    if (!out.empty()) out += sep;
    out += row.cli;
  }
  return out;
}

std::string sched_cli_names(std::string_view sep, bool with_params) {
  std::string out;
  for (const SchedRow& row : sched_rows()) {
    if (!out.empty()) out += sep;
    out += row.cli;
    if (with_params) out += row.params;
  }
  return out;
}

}  // namespace tcn::core
