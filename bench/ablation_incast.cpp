// Ablation A5: burst tolerance under incast (Sec. 4.3: "TCN delivers faster
// congestion notification since it makes marking decisions instantly rather
// than after a time window. So TCN can better handle bursty datacenter
// traffic (e.g., incast)").
//
// Fan-in queries (partition/aggregate) into one client over a 10G star with
// a 300KB shared port buffer. Query completion time (QCT) is gated by the
// slowest response; one lost tail packet costs an RTOmin. CoDel needs a full
// `interval` of persistent delay before its first mark, so synchronized
// bursts overrun the buffer more often.
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "stats/percentile.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"
#include "workload/incast.hpp"

using namespace tcn;

namespace {

struct Row {
  double avg_qct_us;
  double p99_qct_us;
  std::uint64_t timeouts;
};

Row run(core::Scheme scheme, std::uint32_t fanout) {
  sim::Simulator simulator;
  core::SchemeParams params;
  params.rtt_lambda = 100 * sim::kMicrosecond;
  params.red_threshold_bytes = 125'000;
  params.codel_target = 25 * sim::kMicrosecond;
  params.codel_interval = 400 * sim::kMicrosecond;  // ~4x base RTT
  core::SchedConfig sched;
  sched.kind = core::SchedKind::kFifo;
  sched.num_queues = 1;

  topo::StarConfig star;
  star.num_hosts = 33;  // host 0 = aggregator, 32 workers
  star.link_rate_bps = 10'000'000'000ULL;
  star.num_queues = 1;
  star.buffer_bytes = 300'000;
  star.host_delay =
      topo::star_host_delay_for_rtt(100 * sim::kMicrosecond, star.link_prop);
  auto network =
      topo::build_star(simulator, star, core::make_scheduler_factory(sched),
                       core::make_marker_factory(scheme, params));

  transport::FlowManager fm;
  workload::FlowLauncher launch = [&fm](net::Host& a, net::Host& b,
                                        transport::FlowSpec s) {
    fm.start_flow(a, b, std::move(s));
  };
  std::vector<net::Host*> servers;
  for (std::size_t i = 1; i < network.num_hosts(); ++i) {
    servers.push_back(&network.host(i));
  }
  workload::IncastConfig cfg;
  cfg.fanout = fanout;
  cfg.response_bytes = 128'000;
  cfg.num_queries = 200;
  cfg.interval = 5 * sim::kMillisecond;
  workload::IncastGenerator gen(
      simulator, launch, servers, &network.host(0), cfg,
      [](std::uint32_t, std::uint64_t size) {
        transport::FlowSpec spec;
        spec.size = size;
        spec.tcp.cc = transport::CongestionControl::kDctcp;
        spec.tcp.init_cwnd_pkts = 10;
        spec.tcp.rto_min = 5 * sim::kMillisecond;
        spec.tcp.rto_init = 5 * sim::kMillisecond;
        return spec;
      },
      nullptr);
  gen.start();
  simulator.run(60 * sim::kSecond);

  std::vector<double> qct_us;
  std::uint64_t timeouts = 0;
  for (const auto& q : gen.results()) {
    qct_us.push_back(static_cast<double>(q.qct) / sim::kMicrosecond);
    timeouts += q.timeouts;
  }
  return {stats::mean(qct_us), stats::percentile(qct_us, 99.0), timeouts};
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_or_exit(argc, argv, {});
  std::printf("=== Ablation: incast burst tolerance (10G, 128KB responses, "
              "300KB buffer, DCTCP, 200 queries) ===\n\n");
  std::printf("%7s | %-10s | %12s | %12s | %9s\n", "fanout", "scheme",
              "avg QCT us", "p99 QCT us", "timeouts");
  struct SchemeRow {
    const char* name;
    core::Scheme scheme;
  };
  for (const std::uint32_t fanout : {8u, 16u, 24u, 32u}) {
    for (const auto& s : {SchemeRow{"TCN", core::Scheme::kTcn},
                          SchemeRow{"CoDel", core::Scheme::kCodel},
                          SchemeRow{"RED-queue", core::Scheme::kRedPerQueue}}) {
      const auto r = run(s.scheme, fanout);
      std::printf("%7u | %-10s | %12.1f | %12.1f | %9llu\n", fanout, s.name,
                  r.avg_qct_us, r.p99_qct_us,
                  static_cast<unsigned long long>(r.timeouts));
    }
    std::printf("\n");
  }
  std::printf("Expected shape: TCN marks the burst instantly and matches the "
              "queue-length schemes; CoDel waits a full\ninterval before its "
              "first mark, so its queries drag (up to ~70%% higher QCT at "
              "moderate fanout) until\nthe link saturates and everyone "
              "converges.\n");
  return 0;
}
