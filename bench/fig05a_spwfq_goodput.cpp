// Figure 5a: TCN strictly preserves SP/WFQ.
//
// 1G star, SP/WFQ with 3 queues: queue 0 strict-high, queues 1 and 2 equal
// WFQ weights. Timeline: t=0 a 500Mbps-limited flow into queue 0; t=0.5s a
// TCP flow into queue 1; t=1.0s four TCP flows into queue 2. Per the policy,
// steady goodputs must be ~500 / ~250 / ~250 Mbps regardless of flow counts.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::parse_or_exit(argc, argv, {});
  sim::Simulator simulator;
  core::SchemeParams params;
  params.rtt_lambda = 256 * sim::kMicrosecond;
  core::SchedConfig sched;
  sched.kind = core::SchedKind::kSpWfq;
  sched.num_queues = 3;
  sched.num_sp = 1;

  topo::StarConfig star;
  star.num_hosts = 4;
  star.num_queues = 3;
  star.buffer_bytes = 96'000;
  star.host_delay =
      topo::star_host_delay_for_rtt(250 * sim::kMicrosecond, star.link_prop);
  star.host_rates = {0, 500'000'000, 0, 0};  // sender 1 is the 500Mbps source
  auto network =
      topo::build_star(simulator, star, core::make_scheduler_factory(sched),
                       core::make_marker_factory(core::Scheme::kTcn, params));

  transport::FlowManager fm;
  std::vector<std::unique_ptr<stats::GoodputMeter>> meters;
  for (int q = 0; q < 3; ++q) {
    meters.push_back(
        std::make_unique<stats::GoodputMeter>(100 * sim::kMillisecond));
  }
  auto start = [&](std::size_t host, std::uint8_t q, int n) {
    for (int i = 0; i < n; ++i) {
      transport::FlowSpec spec;
      spec.size = 2'000'000'000ULL;
      spec.service = q;
      spec.data_dscp = transport::constant_dscp(q);
      spec.ack_dscp = q;
      spec.tcp.max_cwnd_bytes = 64'000;  // socket-buffer cap (see quickstart)
      auto* meter = meters[q].get();
      spec.on_deliver = [meter](std::uint32_t b, sim::Time t) {
        meter->record(b, t);
      };
      fm.start_flow(network.host(host), network.host(0), spec);
    }
  };
  start(1, 0, 1);
  simulator.schedule_at(500 * sim::kMillisecond, [&] { start(2, 1, 1); });
  simulator.schedule_at(1000 * sim::kMillisecond, [&] { start(3, 2, 4); });
  simulator.run(2 * sim::kSecond);

  std::printf("=== Fig. 5a: per-queue goodput vs time under TCN with SP/WFQ "
              "===\n(queue 0 strict-high fed at 500Mbps; queues 1,2 equal "
              "WFQ weights)\n\n");
  std::printf("%8s | %8s %8s %8s\n", "time (s)", "q0 Mbps", "q1 Mbps",
              "q2 Mbps");
  for (int bin = 0; bin < 20; ++bin) {
    std::printf("%8.1f |", (bin + 1) * 0.1);
    for (int q = 0; q < 3; ++q) {
      std::printf(" %8.0f", meters[q]->bin_bps(bin) / 1e6);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: q0 holds ~470Mbps throughout; q1 takes the "
              "remainder alone, then splits it\nevenly with q2 when q2's 4 "
              "flows start (~235Mbps each) -- policy preserved.\n");
  return 0;
}
