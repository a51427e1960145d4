#include "core/schemes.hpp"

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

}  // namespace

topo::SchedulerFactory make_scheduler_factory(const SchedConfig& cfg) {
  if (cfg.num_queues == 0) {
    throw std::invalid_argument("SchedConfig: num_queues must be >= 1");
  }
  const bool hybrid =
      cfg.kind == SchedKind::kSpDwrr || cfg.kind == SchedKind::kSpWfq;
  if (hybrid && cfg.num_sp >= cfg.num_queues) {
    throw std::invalid_argument("SchedConfig: num_sp must be < num_queues");
  }

  switch (cfg.kind) {
    case SchedKind::kFifo:
      return [] { return std::make_unique<net::FifoScheduler>(); };
    case SchedKind::kSp:
      return [] { return std::make_unique<sched::SpScheduler>(); };
    case SchedKind::kDwrr:
      return [cfg] {
        return std::make_unique<sched::DwrrScheduler>(
            std::vector<std::uint64_t>(cfg.num_queues, cfg.quantum),
            cfg.mq_ecn_beta);
      };
    case SchedKind::kWrr:
      return [cfg] {
        return std::make_unique<sched::WrrScheduler>(
            std::vector<std::uint32_t>(cfg.num_queues, 1));
      };
    case SchedKind::kWfq:
      return [cfg] {
        return std::make_unique<sched::WfqScheduler>(
            std::vector<double>(cfg.num_queues, 1.0));
      };
    case SchedKind::kSpDwrr:
      return [cfg] {
        return std::make_unique<sched::SpHybridScheduler>(
            cfg.num_sp,
            std::make_unique<sched::DwrrScheduler>(
                std::vector<std::uint64_t>(cfg.num_queues, cfg.quantum),
                cfg.mq_ecn_beta));
      };
    case SchedKind::kSpWfq:
      return [cfg] {
        return std::make_unique<sched::SpHybridScheduler>(
            cfg.num_sp, std::make_unique<sched::WfqScheduler>(
                            std::vector<double>(cfg.num_queues, 1.0)));
      };
    case SchedKind::kPifoStfq:
      return [cfg] {
        return std::make_unique<sched::PifoScheduler>(
            sched::stfq_rank_program(std::vector<double>(cfg.num_queues, 1.0)));
      };
    case SchedKind::kSpPifo:
      if (cfg.sp_pifo_levels < 2) {
        throw std::invalid_argument(
            "SchedConfig: sp_pifo_levels must be >= 2");
      }
      return [cfg] {
        return std::make_unique<sched::SpPifoScheduler>(cfg.sp_pifo_levels,
                                                        make_rank_program(cfg));
      };
    case SchedKind::kAifo:
      if (cfg.aifo_window < 1) {
        throw std::invalid_argument("SchedConfig: aifo_window must be >= 1");
      }
      if (!(cfg.aifo_k >= 0.0 && cfg.aifo_k < 1.0)) {
        throw std::invalid_argument("SchedConfig: aifo_k must be in [0, 1)");
      }
      return [cfg] {
        return std::make_unique<sched::AifoScheduler>(
            cfg.aifo_window, cfg.aifo_k, make_rank_program(cfg));
      };
  }
  throw std::invalid_argument("make_scheduler_factory: bad kind");
}

topo::MarkerFactory make_marker_factory(Scheme scheme,
                                        const SchemeParams& p) {
  switch (scheme) {
    case Scheme::kTcn:
      return [p](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<aqm::TcnMarker>(p.rtt_lambda);
      };
    case Scheme::kTcnProb:
      return [p](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<aqm::TcnProbabilisticMarker>(
            p.tcn_tmin, p.tcn_tmax, p.tcn_pmax, p.seed);
      };
    case Scheme::kCodel:
      return [p](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<aqm::CodelMarker>(p.codel_target,
                                                  p.codel_interval);
      };
    case Scheme::kMqEcn:
      return [p](net::Scheduler& s, const net::PortConfig&) {
        auto* provider = dynamic_cast<net::RoundRateProvider*>(&s);
        if (provider == nullptr) {
          throw std::invalid_argument(
              "MQ-ECN only supports round-robin schedulers (Sec. 3.3)");
        }
        return std::make_unique<aqm::MqEcnMarker>(provider, p.rtt_lambda);
      };
    case Scheme::kRedPerQueue:
      return [p](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<aqm::RedEcnMarker>(p.red_threshold_bytes,
                                                   aqm::RedScope::kPerQueue);
      };
    case Scheme::kRedPerPort:
      return [p](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<aqm::RedEcnMarker>(p.red_threshold_bytes,
                                                   aqm::RedScope::kPerPort);
      };
    case Scheme::kRedDequeue:
      return [p](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<aqm::RedEcnMarker>(p.red_threshold_bytes,
                                                   aqm::RedScope::kPerQueue,
                                                   aqm::RedSide::kDequeue);
      };
    case Scheme::kPie:
      return [p](net::Scheduler&, const net::PortConfig& port) {
        aqm::PieConfig pie;
        pie.target = p.pie_target > 0 ? p.pie_target : p.rtt_lambda / 5;
        pie.t_update = p.pie_update > 0 ? p.pie_update : p.rtt_lambda / 2;
        pie.dq_thresh = p.dq_thresh;
        pie.ewma_w = p.ewma_w;
        return std::make_unique<aqm::PieMarker>(port.num_queues, pie, p.seed);
      };
    case Scheme::kIdealRate:
      return [p](net::Scheduler&, const net::PortConfig& port) {
        return std::make_unique<aqm::IdealRedMarker>(
            port.num_queues, p.dq_thresh, p.rtt_lambda, p.ewma_w);
      };
    case Scheme::kIdealOracle:
      return [p](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<aqm::RedEcnMarker>(p.oracle_thresholds);
      };
    case Scheme::kNone:
      return [](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<net::NullMarker>();
      };
  }
  throw std::invalid_argument("make_marker_factory: bad scheme");
}

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kTcn: return "TCN";
    case Scheme::kTcnProb: return "TCN-prob";
    case Scheme::kCodel: return "CoDel";
    case Scheme::kMqEcn: return "MQ-ECN";
    case Scheme::kRedPerQueue: return "RED-queue";
    case Scheme::kRedPerPort: return "RED-port";
    case Scheme::kRedDequeue: return "RED-deq";
    case Scheme::kPie: return "PIE";
    case Scheme::kIdealRate: return "Ideal-rate";
    case Scheme::kIdealOracle: return "Ideal-oracle";
    case Scheme::kNone: return "DropTail";
  }
  return "?";
}

std::string sched_name(SchedKind k) {
  switch (k) {
    case SchedKind::kFifo: return "FIFO";
    case SchedKind::kSp: return "SP";
    case SchedKind::kDwrr: return "DWRR";
    case SchedKind::kWrr: return "WRR";
    case SchedKind::kWfq: return "WFQ";
    case SchedKind::kSpDwrr: return "SP/DWRR";
    case SchedKind::kSpWfq: return "SP/WFQ";
    case SchedKind::kPifoStfq: return "PIFO-STFQ";
    case SchedKind::kSpPifo: return "SP-PIFO";
    case SchedKind::kAifo: return "AIFO";
  }
  return "?";
}

}  // namespace tcn::core
