// Figure 2: the queue-capacity measurement tradeoff (Sec. 3.3).
//
// 10G star, 11 servers, DWRR with two 18KB-quantum queues, ECN*. 8 flows in
// queue 0 from t=0; 2 more flows join queue 1 at t=10ms, so queue 0's true
// capacity drops to 5Gbps. We trace three estimators of queue 0's capacity:
//   (a) Algorithm 1 with dq_thresh = 40KB  -- few samples, slow convergence
//   (b) Algorithm 1 with dq_thresh = 10KB  -- noisy samples (10KB < 18KB
//       quantum), oscillating well below/at 10Gbps, biased high
//   (c) MQ-ECN's round-time estimate       -- fast and accurate (round-robin
//       schedulers only)
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "rate_trace.hpp"

using namespace tcn;

namespace {

void summarize(const char* name, const bench::RateTrace& t) {
  const auto conv = t.convergence();
  const std::string conv_s =
      conv < 0 ? "never" : std::to_string(conv / sim::kMicrosecond) + "us";
  const std::string total_s =
      t.total_samples > 0 ? std::to_string(t.total_samples) : "cont.";
  std::printf("%-22s | %11zu | %9s | %12s | %8.2f..%-8.2f | %10.2f\n", name,
              t.samples_in_2ms, total_s.c_str(), conv_s.c_str(),
              t.sample_min() / 1e9, t.sample_max() / 1e9,
              t.final_estimate() / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_or_exit(argc, argv, {});
  std::printf(
      "=== Fig. 2: estimating queue 0's capacity after its true share drops "
      "to 5Gbps at t=10ms ===\n(10G, DWRR 2x18KB quanta, ECN*, 8 flows then "
      "+2)\n\n");
  std::printf("%-22s | %11s | %9s | %12s | %18s | %10s\n", "estimator",
              "samples/2ms", "total", "convergence", "sample range Gbps",
              "final Gbps");
  summarize("Alg.1 dq_thresh=40KB", bench::run_rate_trace(40'000));
  summarize("Alg.1 dq_thresh=10KB", bench::run_rate_trace(10'000));
  summarize("MQ-ECN round time", bench::run_rate_trace(0));
  std::printf(
      "\nExpected shape: 40KB -> few samples, slow (multi-ms) convergence; "
      "10KB -> oscillating samples\n(dq_thresh < 18KB quantum) whose smoothed "
      "estimate overshoots 5Gbps; MQ-ECN converges fastest.\n");
  return 0;
}
