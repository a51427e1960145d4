// Regression tests pinning the paper's figure *shapes* (who wins, roughly by
// how much, where the crossovers are) at miniature scale, so a refactor that
// silently breaks a reproduction fails CI rather than only the benches.
//
// Fig. 1 / 5a shapes live in core_test (fairness rigs); this file covers the
// estimation tradeoff (Fig. 2), the buffer-occupancy comparison (Fig. 3),
// and the RTT ordering of Fig. 5b.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/experiment.hpp"
#include "rate_trace.hpp"
#include "stats/percentile.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"
#include "transport/ping.hpp"

namespace tcn {
namespace {

// ------------------------------------------------------------- Fig. 2 -----

TEST(PaperShapes, Fig2_CoarseWindowConvergesSlowly) {
  const auto t = bench::run_rate_trace(40'000);
  // Few samples (paper: 29 in 2ms) and convergence beyond 2ms.
  EXPECT_LT(t.samples_in_2ms, 40u);
  const auto conv = t.convergence();
  EXPECT_TRUE(conv < 0 || conv > 1500 * sim::kMicrosecond);
}

TEST(PaperShapes, Fig2_FineWindowOscillatesAndOverestimates) {
  const auto t = bench::run_rate_trace(10'000);
  // dq_thresh (10KB) below the 18KB quantum: samples swing between ~3.7G
  // and 10G, and the smoothed estimate sits well above the true 5Gbps.
  EXPECT_LT(t.sample_min(), 4.5e9);
  EXPECT_GT(t.sample_max(), 9e9);
  EXPECT_GT(t.final_estimate(), 5.5e9);
}

TEST(PaperShapes, Fig2_MqEcnConvergesFast) {
  const auto t = bench::run_rate_trace(0);
  const auto conv = t.convergence();
  ASSERT_GE(conv, 0);
  EXPECT_LT(conv, 1500 * sim::kMicrosecond);  // paper: within ~600us
  EXPECT_NEAR(t.final_estimate(), 5e9, 0.5e9);
}

// ------------------------------------------------------------- Fig. 3 -----

double occupancy_peak_kb(core::Scheme scheme) {
  sim::Simulator simulator;
  core::SchemeParams params;
  params.rtt_lambda = 100 * sim::kMicrosecond;
  params.red_threshold_bytes = 125'000;
  core::SchedConfig sched;
  sched.kind = core::SchedKind::kFifo;
  sched.num_queues = 1;
  topo::StarConfig star;
  star.num_hosts = 9;
  star.link_rate_bps = 10'000'000'000ULL;
  star.num_queues = 1;
  star.buffer_bytes = 2'000'000;
  star.host_delay =
      topo::star_host_delay_for_rtt(100 * sim::kMicrosecond, star.link_prop);
  auto network =
      topo::build_star(simulator, star, core::make_scheduler_factory(sched),
                       core::make_marker_factory(scheme, params));
  transport::FlowManager fm;
  for (std::size_t h = 1; h <= 8; ++h) {
    transport::FlowSpec spec;
    spec.size = 2'000'000'000ULL;
    spec.tcp.cc = transport::CongestionControl::kEcnStar;
    spec.tcp.init_cwnd_pkts = 16;
    fm.start_flow(network.host(h), network.host(0), spec);
  }
  stats::PeriodicSampler sampler(simulator, 10 * sim::kMicrosecond, [&] {
    return static_cast<double>(network.switch_at(0).port(0).total_bytes());
  });
  sampler.start();
  simulator.run(10 * sim::kMillisecond);
  return sampler.max_value() / 1e3;
}

TEST(PaperShapes, Fig3_DequeueRedPeaksBelowEnqueueRedAndTcn) {
  const double enq = occupancy_peak_kb(core::Scheme::kRedPerQueue);
  const double deq = occupancy_peak_kb(core::Scheme::kRedDequeue);
  const double tcn = occupancy_peak_kb(core::Scheme::kTcn);
  // Dequeue RED reacts to *future* dequeued packets, so its slow-start peak
  // is the lowest; enqueue RED and TCN peak alike (Sec. 4.3).
  EXPECT_LT(deq, enq);
  EXPECT_NEAR(tcn, enq, enq * 0.15);
  // Everyone's peak is bounded well under the 2MB buffer (marking works).
  EXPECT_LT(enq, 400.0);
}

// ------------------------------------------------------------ Fig. 5b -----

TEST(PaperShapes, Fig5b_TcnRttFarBelowStandardRed) {
  auto run = [](core::Scheme scheme) {
    sim::Simulator simulator;
    core::SchemeParams params;
    params.rtt_lambda = 256 * sim::kMicrosecond;
    params.red_threshold_bytes = 32'000;
    core::SchedConfig sched;
    sched.kind = core::SchedKind::kSpWfq;
    sched.num_queues = 3;
    sched.num_sp = 1;
    topo::StarConfig star;
    star.num_hosts = 4;
    star.num_queues = 3;
    star.buffer_bytes = 96'000;
    star.host_delay = topo::star_host_delay_for_rtt(250 * sim::kMicrosecond,
                                                    star.link_prop);
    star.host_rates = {0, 500'000'000, 0, 0};
    auto network = topo::build_star(simulator, star,
                                    core::make_scheduler_factory(sched),
                                    core::make_marker_factory(scheme, params));
    transport::FlowManager fm;
    auto start = [&](std::size_t host, std::uint8_t q, int n) {
      for (int i = 0; i < n; ++i) {
        transport::FlowSpec spec;
        spec.size = 2'000'000'000ULL;
        spec.service = q;
        spec.data_dscp = transport::constant_dscp(q);
        spec.ack_dscp = q;
        spec.tcp.max_cwnd_bytes = 64'000;
        fm.start_flow(network.host(host), network.host(0), spec);
      }
    };
    start(1, 0, 1);
    start(2, 1, 1);
    start(3, 2, 4);
    transport::PingResponder responder(network.host(3), 99);
    transport::PingApp ping(network.host(0), 3, 99, 2, 2 * sim::kMillisecond);
    simulator.schedule_at(100 * sim::kMillisecond, [&] { ping.start(); });
    simulator.run(500 * sim::kMillisecond);
    std::vector<double> us;
    for (const auto r : ping.rtts()) {
      us.push_back(static_cast<double>(r) / sim::kMicrosecond);
    }
    return stats::mean(us);
  };
  const double tcn = run(core::Scheme::kTcn);
  const double red = run(core::Scheme::kRedPerQueue);
  // Paper: 415us vs 1084us average. Require at least a 1.7x gap.
  EXPECT_GT(red, 1.7 * tcn);
  EXPECT_GT(tcn, 250.0);   // never below the base RTT
  EXPECT_LT(tcn, 800.0);
}

}  // namespace
}  // namespace tcn
