// Ablation A2: the full dq_thresh sweep behind Remark 3 -- no single
// measurement window works. Small windows oscillate and bias the estimate;
// large windows converge too slowly for datacenter dynamics.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "rate_trace.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::parse_or_exit(argc, argv, {});
  std::printf("=== Ablation: Algorithm-1 dq_thresh sweep (Fig. 2 scenario, "
              "true rate 5Gbps) ===\n\n");
  std::printf("%12s | %11s | %12s | %18s | %10s\n", "dq_thresh",
              "samples/2ms", "convergence", "sample range Gbps", "final Gbps");
  for (const std::uint64_t thresh :
       {5'000ULL, 10'000ULL, 20'000ULL, 40'000ULL, 80'000ULL, 160'000ULL}) {
    const auto t = bench::run_rate_trace(thresh);
    const auto conv = t.convergence();
    const std::string conv_s =
        conv < 0 ? "never" : std::to_string(conv / sim::kMicrosecond) + "us";
    std::printf("%9lluKB | %11zu | %12s | %8.2f..%-8.2f | %10.2f\n",
                static_cast<unsigned long long>(thresh / 1000),
                t.samples_in_2ms, conv_s.c_str(), t.sample_min() / 1e9,
                t.sample_max() / 1e9, t.final_estimate() / 1e9);
  }
  std::printf("\nExpected shape: no value is both fast-converging and "
              "accurate -- the tradeoff motivating TCN.\n");
  return 0;
}
