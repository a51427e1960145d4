// Figure 1: per-port RED/ECN violates DWRR fairness.
//
// Testbed reproduction: 3 servers on a 1GbE switch, DWRR with 2 equal-quantum
// queues, DCTCP, per-port ECN/RED threshold 30KB. Service 1 keeps 1 long
// flow; service 2 ramps from 2 to 16 flows. Under per-port marking, service
// 1's packets get marked for service 2's buffer, so service 2's aggregate
// goodput climbs with its flow count (paper: 670Mbps @8 flows, 782Mbps @16)
// even though DWRR says 50/50. A TCN column is printed for contrast.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench_util.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"

using namespace tcn;

namespace {

struct Result {
  double s1_mbps;
  double s2_mbps;
};

Result run(core::Scheme scheme, int s2_flows) {
  sim::Simulator simulator;
  core::SchemeParams params;
  params.rtt_lambda = 250 * sim::kMicrosecond;
  params.red_threshold_bytes = 30'000;  // DCTCP-paper recommendation
  core::SchedConfig sched;
  sched.kind = core::SchedKind::kDwrr;
  sched.num_queues = 2;

  topo::StarConfig star;
  star.num_hosts = 3;
  star.num_queues = 2;
  star.buffer_bytes = 192'000;
  star.host_delay =
      topo::star_host_delay_for_rtt(250 * sim::kMicrosecond, star.link_prop);
  auto network =
      topo::build_star(simulator, star, core::make_scheduler_factory(sched),
                       core::make_marker_factory(scheme, params));

  transport::FlowManager fm;
  std::vector<std::unique_ptr<stats::GoodputMeter>> meters;
  meters.push_back(std::make_unique<stats::GoodputMeter>(10 * sim::kMillisecond));
  meters.push_back(std::make_unique<stats::GoodputMeter>(10 * sim::kMillisecond));

  auto start = [&](std::size_t host, std::uint8_t q, int n) {
    for (int i = 0; i < n; ++i) {
      transport::FlowSpec spec;
      spec.size = 2'000'000'000;  // long-lived
      spec.service = q;
      spec.data_dscp = transport::constant_dscp(q);
      spec.ack_dscp = q;
      auto* meter = meters[q].get();
      spec.on_deliver = [meter](std::uint32_t b, sim::Time t) {
        meter->record(b, t);
      };
      fm.start_flow(network.host(host), network.host(0), spec);
    }
  };
  start(1, 0, 1);         // service 1: always one flow
  start(2, 1, s2_flows);  // service 2: the aggressor

  simulator.run(600 * sim::kMillisecond);
  const auto from = 100 * sim::kMillisecond;
  const auto to = 600 * sim::kMillisecond;
  return {meters[0]->average_bps(from, to) / 1e6,
          meters[1]->average_bps(from, to) / 1e6};
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_or_exit(argc, argv, {});
  std::printf("=== Fig. 1: per-port RED violates DWRR (1G, 2 queues, "
              "K=30KB, DCTCP) ===\n\n");
  std::printf("%9s | %21s | %21s\n", "", "per-port RED (paper)", "TCN (contrast)");
  std::printf("%9s | %10s %10s | %10s %10s\n", "s2 flows", "s1 Mbps",
              "s2 Mbps", "s1 Mbps", "s2 Mbps");
  for (const int n : {1, 2, 4, 8, 16}) {
    const auto red = run(core::Scheme::kRedPerPort, n);
    const auto tcn = run(core::Scheme::kTcn, n);
    std::printf("%9d | %10.0f %10.0f | %10.0f %10.0f\n", n, red.s1_mbps,
                red.s2_mbps, tcn.s1_mbps, tcn.s2_mbps);
  }
  std::printf("\nExpected shape: under per-port RED, s2 goodput grows with "
              "its flow count (fairness violated);\nunder TCN both services "
              "hold ~half the link regardless of flow count.\n");
  return 0;
}
