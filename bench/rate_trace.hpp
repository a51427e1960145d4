// Shared harness for the Fig. 2 scenario (and the dq_thresh ablation):
// 10G star, DWRR 2x18KB quanta, ECN*; 8 flows in queue 0 from t=0, 2 flows
// join queue 1 at t=10ms, dropping queue 0's true capacity to 5Gbps. Traces
// queue 0's estimated capacity under Algorithm 1 (dq_thresh > 0) or MQ-ECN's
// round-time estimate (dq_thresh == 0).
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "aqm/mq_ecn.hpp"
#include "aqm/rate_estimator.hpp"
#include "core/schemes.hpp"
#include "obs/metrics.hpp"
#include "sched/dwrr.hpp"
#include "stats/timeseries.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"

namespace tcn::bench {

inline constexpr sim::Time kRateTraceJoin = 10 * sim::kMillisecond;
inline constexpr sim::Time kRateTraceEnd = 30 * sim::kMillisecond;
inline constexpr double kRateTraceTrueBps = 5e9;

struct RateTrace {
  std::vector<stats::PeriodicSampler::Sample> smoothed;  // (t, bps)
  std::vector<double> post_change_samples;               // raw bps post-join
  std::size_t samples_in_2ms = 0;
  /// Whole-run raw sample count, read back from the observability layer
  /// (the "aqm.ideal-red.sample_bps" histogram); 0 for the MQ-ECN trace,
  /// whose estimator is continuous rather than sampling.
  std::uint64_t total_samples = 0;

  /// Time after the join until the smoothed estimate permanently stays
  /// within 10% of the true 5Gbps; -1 if it never does.
  [[nodiscard]] sim::Time convergence() const {
    for (std::size_t i = 0; i < smoothed.size(); ++i) {
      if (smoothed[i].t < kRateTraceJoin) continue;
      if (std::abs(smoothed[i].value - kRateTraceTrueBps) <=
          0.10 * kRateTraceTrueBps) {
        bool stays = true;
        for (std::size_t j = i; j < smoothed.size(); ++j) {
          if (std::abs(smoothed[j].value - kRateTraceTrueBps) >
              0.10 * kRateTraceTrueBps) {
            stays = false;
            break;
          }
        }
        if (stays) return smoothed[i].t - kRateTraceJoin;
      }
    }
    return -1;
  }

  [[nodiscard]] double sample_min() const {
    return post_change_samples.empty()
               ? 0.0
               : *std::min_element(post_change_samples.begin(),
                                   post_change_samples.end());
  }
  [[nodiscard]] double sample_max() const {
    return post_change_samples.empty()
               ? 0.0
               : *std::max_element(post_change_samples.begin(),
                                   post_change_samples.end());
  }
  [[nodiscard]] double final_estimate() const {
    return smoothed.empty() ? 0.0 : smoothed.back().value;
  }
};

inline RateTrace run_rate_trace(std::uint64_t dq_thresh) {
  // Registry installed before the topology so the IdealRedMarker resolves
  // its "aqm.ideal-red.sample_bps" histogram; the trace re-reads the
  // estimator's sampling activity from it after the run.
  obs::MetricsRegistry registry;
  obs::MetricsRegistry::Scope metrics_scope(registry);

  sim::Simulator simulator;
  RateTrace trace;

  aqm::IdealRedMarker* ideal = nullptr;
  sched::DwrrScheduler* dwrr = nullptr;
  const sim::Time rtt_lambda = 100 * sim::kMicrosecond;

  topo::StarConfig star;
  star.num_hosts = 11;
  star.link_rate_bps = 10'000'000'000ULL;
  star.num_queues = 2;
  star.buffer_bytes = 4'000'000;  // ample: this scenario is about estimation
  star.host_delay =
      topo::star_host_delay_for_rtt(100 * sim::kMicrosecond, star.link_prop);

  auto sched_factory = [&]() -> std::unique_ptr<net::Scheduler> {
    auto s = std::make_unique<sched::DwrrScheduler>(
        std::vector<std::uint64_t>{18'000, 18'000});
    if (dwrr == nullptr) dwrr = s.get();  // port 0 (to receiver) built first
    return s;
  };
  auto marker_factory = [&](net::Scheduler& s, const net::PortConfig& port)
      -> std::unique_ptr<net::Marker> {
    if (dq_thresh == 0) {
      // MQ-ECN trace: the queues are controlled by MQ-ECN itself, exactly as
      // in the paper's Fig. 2(c).
      auto* provider = dynamic_cast<net::RoundRateProvider*>(&s);
      return std::make_unique<aqm::MqEcnMarker>(provider, rtt_lambda);
    }
    auto m = std::make_unique<aqm::IdealRedMarker>(port.num_queues, dq_thresh,
                                                   rtt_lambda, 0.875);
    if (ideal == nullptr) ideal = m.get();
    return m;
  };
  auto network =
      topo::build_star(simulator, star, sched_factory, marker_factory);

  transport::FlowManager fm;
  auto start = [&](std::size_t host, std::uint8_t q) {
    transport::FlowSpec spec;
    spec.size = 4'000'000'000ULL;
    spec.service = q;
    spec.tcp.cc = transport::CongestionControl::kEcnStar;
    spec.tcp.init_cwnd_pkts = 16;
    spec.data_dscp = transport::constant_dscp(q);
    spec.ack_dscp = q;
    fm.start_flow(network.host(host), network.host(0), spec);
  };
  for (std::size_t h = 1; h <= 8; ++h) start(h, 0);
  simulator.schedule_at(kRateTraceJoin, [&] {
    start(9, 1);
    start(10, 1);
  });

  if (dq_thresh > 0) {
    ideal->set_sample_observer(
        [&](std::size_t q, sim::Time now, double sample_Bps, double) {
          if (q != 0 || now < kRateTraceJoin) return;
          trace.post_change_samples.push_back(sample_Bps * 8.0);
          if (now <= kRateTraceJoin + 2 * sim::kMillisecond) {
            ++trace.samples_in_2ms;
          }
        });
  }

  stats::PeriodicSampler sampler(
      simulator, 50 * sim::kMicrosecond, [&]() -> double {
        if (dq_thresh > 0) {
          const auto& est = ideal->estimator(0);
          return est.has_estimate() ? est.avg_rate_Bps() * 8.0 : 1e10;
        }
        return dwrr->queue_rate_bps(0, simulator.now());
      });
  sampler.start();
  simulator.run(kRateTraceEnd);
  trace.smoothed = sampler.samples();

  if (dq_thresh == 0) {
    // MQ-ECN samples once per round (~28.8us at 10G with 2x18KB quanta).
    trace.samples_in_2ms = static_cast<std::size_t>(
        2 * sim::kMillisecond /
        (2 * sim::transmission_time(18'000, 10'000'000'000ULL)));
    for (const auto& s : trace.smoothed) {
      if (s.t >= kRateTraceJoin + 500 * sim::kMicrosecond) {
        trace.post_change_samples.push_back(s.value);
      }
    }
  }
  if (dq_thresh > 0) {
    trace.total_samples = registry.histogram("aqm.ideal-red.sample_bps").count();
  }
  return trace;
}

}  // namespace tcn::bench
