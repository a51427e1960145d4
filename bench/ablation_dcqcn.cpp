// Ablation A6: probabilistic TCN with DCQCN (Sec. 4.3: "some ECN-based
// transports, like DCQCN, do require RED-like probabilistic marking to
// alleviate the unfairness problem"; comparing TCN-empowered DCQCN is the
// paper's stated future work).
//
// Four DCQCN flows with asymmetric starting rates share a 10G bottleneck.
// With single-threshold (on/off) marking, marking episodes hit all flows
// identically regardless of their rate: every flow receives the same capped
// CNP stream, cuts by the same factor, and fast recovery restores each flow
// to its *own* previous rate -- the asymmetry freezes. Probabilistic marking
// (RED-prob on queue length, or TCN-prob on sojourn time) marks each flow
// proportionally to its packet share, so fast flows are cut more often and
// the mix equalizes. We report per-flow goodput and Jain's fairness index
// over the steady window.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "aqm/red_prob.hpp"
#include "aqm/tcn.hpp"
#include "bench_util.hpp"
#include "net/fifo_scheduler.hpp"
#include "net/switch.hpp"
#include "stats/percentile.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/dcqcn.hpp"

using namespace tcn;

namespace {

constexpr int kFlows = 4;
constexpr sim::Time kEnd = 400 * sim::kMillisecond;
constexpr sim::Time kMeasureFrom = 200 * sim::kMillisecond;

struct Result {
  std::vector<double> gbps;
  double jain;
  double queue_mean_kb;
  double queue_p95_kb;
  double rate_cov;  ///< coefficient of variation of flow 0's rate over time
};

Result run(const std::function<std::unique_ptr<net::Marker>()>& marker) {
  sim::Simulator simulator;

  topo::StarConfig star;
  star.num_hosts = kFlows + 1;
  star.link_rate_bps = 10'000'000'000ULL;
  star.num_queues = 1;
  star.buffer_bytes = 2'000'000;  // lossless-fabric stand-in
  star.host_delay =
      topo::star_host_delay_for_rtt(85 * sim::kMicrosecond, star.link_prop);
  auto network = topo::build_star(
      simulator, star, [] { return std::make_unique<net::FifoScheduler>(); },
      [&](net::Scheduler&, const net::PortConfig&) { return marker(); });

  transport::DcqcnConfig cfg;
  std::vector<std::unique_ptr<transport::DcqcnReceiver>> rx;
  std::vector<std::unique_ptr<transport::DcqcnSender>> tx;
  std::vector<std::uint64_t> at_measure_start(kFlows, 0);

  // Asymmetric starting rates (a previously-throttled mix): whether the
  // mix equalizes is exactly what the marking profile decides.
  const double initial[kFlows] = {8e9, 1e9, 0.5e9, 0.5e9};
  for (int i = 0; i < kFlows; ++i) {
    const auto port = static_cast<std::uint16_t>(100 + i);
    transport::DcqcnConfig fc = cfg;
    fc.initial_rate_bps = initial[i];
    rx.push_back(std::make_unique<transport::DcqcnReceiver>(
        network.host(0), port, cfg.cnp_interval));
    tx.push_back(std::make_unique<transport::DcqcnSender>(
        network.host(1 + i), 0, static_cast<std::uint16_t>(500 + i), port,
        static_cast<std::uint64_t>(i + 1), fc, 0));
    simulator.schedule_at(1, [&, i] { tx[i]->start(0); });
  }
  simulator.schedule_at(kMeasureFrom, [&] {
    for (int i = 0; i < kFlows; ++i) {
      at_measure_start[i] = rx[i]->bytes_received();
    }
  });
  // Stability instruments: bottleneck queue and flow 0's paced rate.
  std::vector<double> queue_kb;
  std::vector<double> rate0;
  stats::PeriodicSampler sampler(simulator, 100 * sim::kMicrosecond, [&] {
    if (simulator.now() >= kMeasureFrom) {
      queue_kb.push_back(
          static_cast<double>(network.switch_at(0).port(0).total_bytes()) /
          1e3);
      rate0.push_back(tx[0]->rate_bps());
    }
    return 0.0;
  });
  sampler.start();
  simulator.run(kEnd);
  for (auto& t : tx) t->stop();

  Result r;
  double sum = 0, sumsq = 0;
  const double window_s = sim::to_seconds(kEnd - kMeasureFrom);
  for (int i = 0; i < kFlows; ++i) {
    const double g =
        static_cast<double>(rx[i]->bytes_received() - at_measure_start[i]) *
        8.0 / window_s / 1e9;
    r.gbps.push_back(g);
    sum += g;
    sumsq += g * g;
  }
  r.jain = sum * sum / (kFlows * sumsq);
  r.queue_mean_kb = stats::mean(queue_kb);
  r.queue_p95_kb = stats::percentile(queue_kb, 95.0);
  const double rmean = stats::mean(rate0);
  double var = 0;
  for (const double v : rate0) var += (v - rmean) * (v - rmean);
  r.rate_cov = std::sqrt(var / static_cast<double>(rate0.size())) / rmean;
  return r;
}

void report(const char* name, const Result& r) {
  std::printf("%-28s |", name);
  for (const double g : r.gbps) std::printf(" %5.2f", g);
  std::printf(" | %5.3f | %8.0f | %8.0f | %8.2f\n", r.jain, r.queue_mean_kb,
              r.queue_p95_kb, r.rate_cov);
}

}  // namespace

int main(int argc, char** argv) {
  // The seed draws the probabilistic markers' coin flips.
  std::uint64_t seed = 1;
  bench::parse_or_exit(argc, argv,
                       {{"--seed", "S", "RNG seed (default 1)",
                         runner::number_setter(seed)}});
  std::printf("=== Ablation: DCQCN fairness vs marking profile (4 flows, 10G "
              "bottleneck, asymmetric starting rates) ===\n\n");
  std::printf("%-28s | %23s | %5s | %8s | %8s | %8s\n", "marking scheme",
              "per-flow goodput (Gbps)", "Jain", "q mean", "q p95 KB",
              "rate CoV");

  // Single-threshold TCN: T = 78us (the Sec. 4.1 standard threshold).
  report("TCN single threshold", run([] {
           return std::make_unique<aqm::TcnMarker>(78 * sim::kMicrosecond);
         }));
  // Probabilistic TCN (Sec. 4.3): Tmin 4us, Tmax 160us, Pmax 1%.
  report("TCN-prob (Tmin/Tmax/Pmax)", run([&] {
           return std::make_unique<aqm::TcnProbabilisticMarker>(
               4 * sim::kMicrosecond, 160 * sim::kMicrosecond, 0.01,
               seed);
         }));
  // DCQCN's native CP: RED-prob on queue length (Kmin 5KB, Kmax 200KB, 1%).
  report("RED-prob (DCQCN CP)", run([&] {
           return std::make_unique<aqm::RedProbabilisticMarker>(
               5'000, 200'000, 0.01, seed);
         }));

  std::printf("\nExpected shape: TCN-prob and RED-prob columns are nearly "
              "identical -- the sojourn-time profile is a\ndrop-in analogue "
              "of DCQCN's native RED profile (Sec. 4.3: TCN \"can be easily "
              "extended to perform\nsuch probabilistic marking\"), with no "
              "queue-length threshold to retune per scheduler. All three\n"
              "keep DCQCN fair; the probabilistic profiles trade a deeper "
              "standing queue (Kmax) for gentler,\nde-synchronized cuts.\n");
  return 0;
}
