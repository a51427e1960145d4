// Core/integration tests: the factories, the FCT experiment harness, and
// miniature versions of the paper's headline claims:
//   - per-port RED violates DWRR fairness, TCN preserves it (Fig. 1 / 5a)
//   - TCN keeps buffer occupancy near the BDP while per-queue RED with the
//     standard threshold overshoots when queues share the link (Fig. 3 / 5b)
//   - the harness runs every scheme/scheduler combination end to end
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/schemes.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"

namespace tcn::core {
namespace {

TEST(Factories, SchedulerFactoryProducesFreshInstances) {
  SchedConfig cfg;
  cfg.kind = SchedKind::kDwrr;
  cfg.num_queues = 4;
  const auto f = make_scheduler_factory(cfg);
  auto a = f();
  auto b = f();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), "dwrr");
}

TEST(Factories, AllSchedulerKindsConstruct) {
  for (const SchedRow& row : sched_rows()) {
    SchedConfig cfg;
    cfg.kind = row.kind;
    cfg.num_queues = 4;
    cfg.num_sp = 1;
    EXPECT_NE(make_scheduler_factory(cfg)(), nullptr) << row.display;
  }
}

TEST(Factories, HybridRequiresLowPriorityQueues) {
  SchedConfig cfg;
  cfg.kind = SchedKind::kSpDwrr;
  cfg.num_queues = 2;
  cfg.num_sp = 2;
  EXPECT_THROW(make_scheduler_factory(cfg), std::invalid_argument);
}

TEST(Factories, MqEcnRejectsNonRoundRobin) {
  SchemeParams p;
  p.rtt_lambda = 100 * sim::kMicrosecond;
  const auto marker_factory = make_marker_factory(Scheme::kMqEcn, p);

  SchedConfig wfq;
  wfq.kind = SchedKind::kWfq;
  wfq.num_queues = 2;
  auto sched = make_scheduler_factory(wfq)();
  net::PortConfig port;
  EXPECT_THROW(marker_factory(*sched, port), std::invalid_argument);

  SchedConfig dwrr;
  dwrr.kind = SchedKind::kDwrr;
  dwrr.num_queues = 2;
  auto rr = make_scheduler_factory(dwrr)();
  EXPECT_NE(marker_factory(*rr, port), nullptr);
}

TEST(Factories, EverySchemeConstructsAMarker) {
  SchemeParams p;
  p.rtt_lambda = 100 * sim::kMicrosecond;
  p.red_threshold_bytes = 30'000;
  p.oracle_thresholds = {8'000, 8'000};
  p.codel_target = 50 * sim::kMicrosecond;
  p.codel_interval = sim::kMillisecond;
  p.tcn_tmin = 50 * sim::kMicrosecond;
  p.tcn_tmax = 200 * sim::kMicrosecond;
  p.tcn_pmax = 0.8;

  SchedConfig dwrr;
  dwrr.kind = SchedKind::kDwrr;
  dwrr.num_queues = 2;
  auto sched = make_scheduler_factory(dwrr)();
  net::PortConfig port;
  port.num_queues = 2;
  for (const SchemeRow& row : scheme_rows()) {
    EXPECT_NE(make_marker_factory(row.kind, p)(*sched, port), nullptr)
        << row.display;
  }
}

/// Each value of an enum whose last value is `last` has exactly one row.
template <typename Row, typename Kind>
void expect_one_row_per_value(std::span<const Row> rows, Kind last) {
  const auto values = static_cast<std::size_t>(last) + 1;
  EXPECT_EQ(rows.size(), values);
  for (std::size_t v = 0; v < values; ++v) {
    EXPECT_EQ(std::ranges::count(rows, static_cast<Kind>(v), &Row::kind), 1)
        << v;
  }
}

/// The names an unknown-name message lists: "... (a, b, c)".
std::vector<std::string> listed_names(const std::string& message) {
  const std::size_t open = message.rfind('(');
  const std::string list = message.substr(open + 1, message.size() - open - 2);
  std::vector<std::string> names;
  for (std::size_t at = 0; at <= list.size();) {
    const std::size_t comma = std::min(list.find(", ", at), list.size());
    names.push_back(list.substr(at, comma - at));
    at = comma + 2;
  }
  return names;
}

// core/schemes is the one list of the zoo: every parser, name and factory
// reads its rows.
TEST(SchemeRows, EveryValueHasOneRowThatParsesAndNamesIt) {
  expect_one_row_per_value(scheme_rows(), Scheme::kNone);
  expect_one_row_per_value(sched_rows(), SchedKind::kAifo);

  std::vector<std::string> scheme_flags;
  for (const SchemeRow& row : scheme_rows()) {
    EXPECT_EQ(scheme_name(row.kind), row.display);
    if (row.cli.empty()) continue;  // no flag selects it
    scheme_flags.emplace_back(row.cli);
    EXPECT_EQ(parse_scheme(std::string(row.cli)), row.kind) << row.cli;
  }
  std::vector<std::string> sched_flags;
  for (const SchedRow& row : sched_rows()) {
    EXPECT_EQ(sched_name(row.kind), row.display);
    sched_flags.emplace_back(row.cli);
    EXPECT_EQ(parse_sched(std::string(row.cli)), row.kind) << row.cli;
  }
  // No flag selects the offline oracle.
  EXPECT_EQ(scheme_flags.size(), scheme_rows().size() - 1);
  EXPECT_THROW(parse_scheme(""), std::invalid_argument);

  // The names the tcn-bench-1 goldens hold.
  EXPECT_EQ(scheme_name(Scheme::kTcn), "TCN");
  EXPECT_EQ(sched_name(SchedKind::kDwrr), "DWRR");
  EXPECT_EQ(sched_name(SchedKind::kSpDwrr), "SP/DWRR");

  try {
    (void)parse_scheme("nosuch");
    ADD_FAILURE() << "parsed an unknown scheme";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(listed_names(e.what()), scheme_flags) << e.what();
  }
  try {
    (void)parse_sched("nosuch");
    ADD_FAILURE() << "parsed an unknown scheduler";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(listed_names(e.what()), sched_flags) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Miniature paper claims.
// ---------------------------------------------------------------------------

/// Long-lived-flow rig on a star: s1 flows from host 1 -> host 0 in queue 0,
/// s2 flows from host 2 -> host 0 in queue 1, DWRR equal quanta.
struct FairnessRig {
  FairnessRig(Scheme scheme, int flows_q0, int flows_q1) {
    SchemeParams params;
    params.rtt_lambda = 100 * sim::kMicrosecond;
    params.red_threshold_bytes = 30'000;  // DCTCP-recommended K at 1G
    SchedConfig sched;
    sched.kind = SchedKind::kDwrr;
    sched.num_queues = 2;

    topo::StarConfig star;
    star.num_hosts = 3;
    star.num_queues = 2;
    star.buffer_bytes = 192'000;
    star.host_delay = topo::star_host_delay_for_rtt(100 * sim::kMicrosecond,
                                                    star.link_prop);
    net.emplace(topo::build_star(simulator, star,
                                 make_scheduler_factory(sched),
                                 make_marker_factory(scheme, params)));
    for (int q = 0; q < 2; ++q) {
      meters.push_back(
          std::make_unique<stats::GoodputMeter>(10 * sim::kMillisecond));
    }
    auto start = [&](std::size_t host, std::uint8_t q, int n) {
      for (int i = 0; i < n; ++i) {
        transport::FlowSpec spec;
        spec.size = 1'000'000'000;  // effectively infinite
        spec.service = q;
        spec.data_dscp = transport::constant_dscp(q);
        spec.ack_dscp = q;
        spec.tcp.rto_min = 5 * sim::kMillisecond;
        spec.tcp.rto_init = 5 * sim::kMillisecond;
        auto* meter = meters[q].get();
        spec.on_deliver = [meter](std::uint32_t b, sim::Time t) {
          meter->record(b, t);
        };
        fm.start_flow(net->host(host), net->host(0), spec);
      }
    };
    start(1, 0, flows_q0);
    start(2, 1, flows_q1);
    simulator.run(400 * sim::kMillisecond);
  }

  /// Steady-state goodput of queue q in Mbps (skips 100ms warmup).
  double goodput_mbps(std::size_t q) {
    return meters[q]->average_bps(100 * sim::kMillisecond,
                                  400 * sim::kMillisecond) /
           1e6;
  }

  sim::Simulator simulator;
  std::optional<topo::Network> net;
  transport::FlowManager fm;
  std::vector<std::unique_ptr<stats::GoodputMeter>> meters;
};

TEST(PaperClaims, TcnPreservesDwrrFairnessDespiteFlowCountAsymmetry) {
  // 1 flow vs 8 flows, equal DWRR quanta: goodputs must stay ~equal.
  FairnessRig rig(Scheme::kTcn, 1, 8);
  const double q0 = rig.goodput_mbps(0);
  const double q1 = rig.goodput_mbps(1);
  EXPECT_NEAR(q0, q1, 0.12 * (q0 + q1) / 2);  // within 12%
  EXPECT_GT(q0 + q1, 800.0);                  // link still saturated
}

TEST(PaperClaims, PerPortRedViolatesDwrrFairness) {
  // Same setup under per-port RED: the many-flow service grabs much more
  // than half (Fig. 1: 670+ Mbps of ~950).
  FairnessRig rig(Scheme::kRedPerPort, 1, 8);
  const double q0 = rig.goodput_mbps(0);
  const double q1 = rig.goodput_mbps(1);
  EXPECT_GT(q1, 1.4 * q0);
}

TEST(PaperClaims, MqEcnAlsoPreservesDwrrFairness) {
  FairnessRig rig(Scheme::kMqEcn, 1, 8);
  const double q0 = rig.goodput_mbps(0);
  const double q1 = rig.goodput_mbps(1);
  EXPECT_NEAR(q0, q1, 0.15 * (q0 + q1) / 2);
}

TEST(PaperClaims, TcnKeepsLowerOccupancyThanStandardRedWhenSharing) {
  // Two busy queues: per-queue RED with the standard (full-rate) threshold
  // lets each queue build ~K; TCN bounds the *delay*, so total occupancy
  // stays near one K (Remark 1).
  auto run = [](Scheme scheme) {
    FairnessRig rig(scheme, 4, 4);
    auto& port0 = rig.net->switch_at(0).port(0);
    return port0.total_bytes();  // occupancy snapshot at t = 400ms
  };
  // Snapshots fluctuate; compare time-averaged via multiple seeds would be
  // better, but the effect is ~2x so a single steady-state snapshot works
  // with generous margins.
  const auto tcn_occ = run(Scheme::kTcn);
  const auto red_occ = run(Scheme::kRedPerQueue);
  EXPECT_LT(tcn_occ, red_occ);
}

TEST(Harness, RunsSmallExperimentEndToEnd) {
  FctExperiment cfg;
  cfg.topology = FctExperiment::Topology::kStarConverge;
  cfg.scheme = Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.sched.kind = SchedKind::kDwrr;
  cfg.load = 0.5;
  cfg.num_flows = 60;
  cfg.num_services = 4;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 9;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.tcp.rto_min = 10 * sim::kMillisecond;
  cfg.tcp.rto_init = 10 * sim::kMillisecond;
  const auto report = run_fct_experiment(cfg);
  EXPECT_EQ(report.flows_started, 60u);
  EXPECT_EQ(report.flows_completed, 60u);
  EXPECT_GT(report.summary.avg_all_us, 0.0);
  EXPECT_GT(report.events, 1000u);
}

TEST(Harness, DeterministicForSameSeed) {
  FctExperiment cfg;
  cfg.scheme = Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.sched.kind = SchedKind::kWfq;
  cfg.load = 0.4;
  cfg.num_flows = 40;
  cfg.num_services = 2;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 5;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.seed = 7;
  const auto a = run_fct_experiment(cfg);
  const auto b = run_fct_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.summary.avg_all_us, b.summary.avg_all_us);
  EXPECT_EQ(a.events, b.events);
  cfg.seed = 8;
  const auto c = run_fct_experiment(cfg);
  EXPECT_NE(a.summary.avg_all_us, c.summary.avg_all_us);
}

TEST(Harness, PiasRoutesHeadBytesToHighPriority) {
  FctExperiment cfg;
  cfg.scheme = Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.sched.kind = SchedKind::kSpDwrr;
  cfg.sched.num_sp = 1;
  cfg.pias = true;
  cfg.load = 0.5;
  cfg.num_flows = 50;
  cfg.num_services = 4;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 9;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  const auto report = run_fct_experiment(cfg);
  EXPECT_EQ(report.flows_completed, 50u);
}

/// Every (scheme, scheduler) combination the paper evaluates must run.
struct ComboCase {
  Scheme scheme;
  SchedKind sched;
};

class SchemeSchedulerMatrix : public ::testing::TestWithParam<ComboCase> {};

TEST_P(SchemeSchedulerMatrix, CompletesAllFlows) {
  const auto& combo = GetParam();
  FctExperiment cfg;
  cfg.scheme = combo.scheme;
  cfg.sched.kind = combo.sched;
  cfg.sched.num_sp = 1;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.params.codel_target = 51'200;  // testbed tuning
  cfg.params.codel_interval = 1'024 * sim::kMicrosecond;
  cfg.params.tcn_tmin = 125 * sim::kMicrosecond;
  cfg.params.tcn_tmax = 375 * sim::kMicrosecond;
  cfg.params.tcn_pmax = 1.0;
  cfg.load = 0.6;
  cfg.num_flows = 40;
  cfg.num_services = 3;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 6;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.time_limit = 30 * sim::kSecond;
  const auto report = run_fct_experiment(cfg);
  EXPECT_EQ(report.flows_completed, 40u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperMatrix, SchemeSchedulerMatrix,
    ::testing::Values(ComboCase{Scheme::kTcn, SchedKind::kDwrr},
                      ComboCase{Scheme::kTcn, SchedKind::kWfq},
                      ComboCase{Scheme::kTcn, SchedKind::kSpDwrr},
                      ComboCase{Scheme::kTcn, SchedKind::kSpWfq},
                      ComboCase{Scheme::kTcn, SchedKind::kPifoStfq},
                      ComboCase{Scheme::kCodel, SchedKind::kDwrr},
                      ComboCase{Scheme::kCodel, SchedKind::kWfq},
                      ComboCase{Scheme::kMqEcn, SchedKind::kDwrr},
                      ComboCase{Scheme::kRedPerQueue, SchedKind::kDwrr},
                      ComboCase{Scheme::kRedPerQueue, SchedKind::kSpWfq},
                      ComboCase{Scheme::kRedDequeue, SchedKind::kDwrr},
                      ComboCase{Scheme::kIdealRate, SchedKind::kDwrr},
                      ComboCase{Scheme::kTcnProb, SchedKind::kDwrr}),
    [](const ::testing::TestParamInfo<ComboCase>& info) {
      auto s = scheme_name(info.param.scheme) + "_" +
               sched_name(info.param.sched);
      for (auto& c : s) {
        if (c == '-' || c == '/') c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace tcn::core
