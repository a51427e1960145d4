// The one list of the marking schemes and packet schedulers, the
// configuration surface every bench, example and tool drives. One row per
// enum value holds its flag name, its report name and the code that builds
// it; the factories, the name functions, the flag parsers and the flag help
// all read the rows. Adding a scheme or scheduler takes its own files, one
// enum value and one row in schemes.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "topo/network.hpp"

namespace tcn::core {

/// The ECN marking schemes evaluated in the paper (Sec. 6 "Schemes
/// compared") plus the probabilistic TCN extension (Sec. 4.3).
enum class Scheme {
  kTcn,          ///< sojourn-time instantaneous marking (the contribution)
  kTcnProb,      ///< probabilistic TCN with Tmin/Tmax/Pmax
  kCodel,        ///< CoDel in mark mode
  kMqEcn,        ///< MQ-ECN (round-robin schedulers only)
  kRedPerQueue,  ///< per-queue RED, standard static threshold (current practice)
  kRedPerPort,   ///< per-port RED (violates scheduling policies)
  kRedDequeue,   ///< dequeue-side per-queue RED (Wu et al.)
  kPie,          ///< full PIE controller (mark mode)
  kIdealRate,    ///< Eq. 2 with the Algorithm-1 departure-rate estimator
  kIdealOracle,  ///< Eq. 2 with capacities known offline (static experiments)
  kNone,         ///< no marking (drop-tail)
};

enum class SchedKind {
  kFifo,
  kSp,
  kDwrr,
  kWrr,
  kWfq,
  kSpDwrr,  ///< num_sp strict queues over DWRR
  kSpWfq,   ///< num_sp strict queues over WFQ
  kPifoStfq,  ///< PIFO running an STFQ rank program
  kSpPifo,    ///< SP-PIFO approximation of the PIFO (NSDI 2020)
  kAifo,      ///< AIFO: single FIFO + quantile admission (SIGCOMM 2021)
};

/// Rank program driving the rank-based kinds (kPifoStfq, kSpPifo, kAifo).
enum class RankProgram {
  kStfq,      ///< start-time fair queueing over equal weights (default)
  kPriority,  ///< rank = queue index (strict-priority analog; PIAS mode)
};

struct SchedConfig {
  SchedKind kind = SchedKind::kDwrr;
  std::size_t num_queues = 4;
  std::size_t num_sp = 1;         ///< strict queues in hybrid kinds
  std::uint64_t quantum = 1'500;  ///< DWRR per-round bytes (equal quanta)
  double mq_ecn_beta = 0.75;      ///< round-time EWMA for MQ-ECN
  /// Rank program for kSpPifo / kAifo (kPifoStfq is STFQ by definition).
  RankProgram rank = RankProgram::kStfq;
  std::size_t sp_pifo_levels = 8;  ///< strict-priority levels for kSpPifo
  std::size_t aifo_window = 128;   ///< AIFO rank-sample window W
  double aifo_k = 0.1;             ///< AIFO headroom parameter, in [0, 1)
};

struct SchemeParams {
  /// RTT x lambda: TCN's threshold T (Eq. 3) and the time component of every
  /// dynamic queue-length threshold (Eq. 2).
  sim::Time rtt_lambda = 0;
  /// Standard static threshold K = C x RTT x lambda in bytes (RED schemes).
  std::uint64_t red_threshold_bytes = 0;
  /// Per-queue thresholds for the oracle ideal RED.
  std::vector<std::uint64_t> oracle_thresholds;
  sim::Time codel_target = 0;
  sim::Time codel_interval = 0;
  /// PIE control parameters (mark mode); target defaults to rtt_lambda/5
  /// and update period to rtt_lambda/2 when left at zero.
  sim::Time pie_target = 0;
  sim::Time pie_update = 0;
  /// Algorithm 1 measurement threshold (paper default from PIE: 10KB).
  std::uint64_t dq_thresh = 10'000;
  double ewma_w = 0.875;
  // Probabilistic TCN.
  sim::Time tcn_tmin = 0;
  sim::Time tcn_tmax = 0;
  double tcn_pmax = 1.0;
  std::uint64_t seed = 1;
};

/// One scheme: core/schemes.cpp holds a row for each Scheme value.
struct SchemeRow {
  Scheme kind;
  std::string_view cli;      ///< --scheme name; empty when no flag selects it
  std::string_view display;  ///< scheme_name(): reports and result documents
  /// The marker of one port, built from the scheme's parameters, the port's
  /// scheduler and its config.
  std::unique_ptr<net::Marker> (*make)(const SchemeParams&, net::Scheduler&,
                                       const net::PortConfig&);
};

/// One scheduler: core/schemes.cpp holds a row for each SchedKind value.
struct SchedRow {
  SchedKind kind;
  std::string_view cli;  ///< --sched name
  /// The parameters --sched takes after the name, as its help shows them
  /// ("[:levels]"); parse_sched_spec parses them.
  std::string_view params;
  std::string_view display;  ///< sched_name(): reports and result documents
  std::unique_ptr<net::Scheduler> (*make)(const SchedConfig&);
  /// Rejects a config `make` cannot build (std::invalid_argument) before
  /// any port exists; null when every config builds.
  void (*check)(const SchedConfig&) = nullptr;
};

std::span<const SchemeRow> scheme_rows();
std::span<const SchedRow> sched_rows();

/// Scheduler factory for switch ports. Throws std::invalid_argument on
/// nonsensical configs (e.g. hybrid with num_sp >= num_queues).
topo::SchedulerFactory make_scheduler_factory(const SchedConfig& cfg);

/// Marker factory. For kMqEcn the produced factory requires the port
/// scheduler (or the inner scheduler of an SP hybrid -- which the paper's
/// MQ-ECN cannot support, so that case throws) to be a RoundRateProvider.
topo::MarkerFactory make_marker_factory(Scheme scheme,
                                        const SchemeParams& params);

std::string scheme_name(Scheme s);
std::string sched_name(SchedKind k);

/// The scheme or scheduler a flag name selects; throws std::invalid_argument
/// listing the names.
Scheme parse_scheme(const std::string& name);
SchedKind parse_sched(const std::string& name);

/// The flag names in row order, joined by `sep`; `with_params` follows each
/// scheduler's name with its parameters ("sp-pifo[:levels]").
std::string scheme_cli_names(std::string_view sep);
std::string sched_cli_names(std::string_view sep, bool with_params = false);

}  // namespace tcn::core
