// Figure 4: the four benchmark traffic distributions. Prints each CDF and
// the summary statistics the evaluation relies on (mean size, fraction of
// small flows, byte share of sub-10MB flows).
#include <cstdio>

#include "bench_util.hpp"
#include "sim/random.hpp"
#include "workload/distributions.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  bench::parse_or_exit(argc, argv, {});
  std::printf("=== Fig. 4: traffic distributions for evaluation ===\n\n");
  for (const auto kind : workload::all_kinds()) {
    const auto& d = workload::distribution(kind);
    std::printf("-- %s --\n", d.name().c_str());
    std::printf("   %12s  %6s\n", "size (KB)", "CDF");
    for (const auto& p : d.points()) {
      std::printf("   %12.1f  %6.2f\n", p.value / 1e3, p.cdf);
    }
    sim::Rng rng(42);
    double total = 0, below10mb = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) {
      const double s = d.sample(rng);
      total += s;
      if (s < 10e6) below10mb += s;
    }
    std::printf("   mean = %.1f KB, P(size<=100KB) = %.2f, "
                "byte share of flows <10MB = %.2f\n\n",
                d.mean() / 1e3, d.cdf_at(100'000), below10mb / total);
  }
  std::printf("Expected shape: all heavy-tailed; web search least skewed "
              "(~60%% of bytes from sub-10MB flows).\n");
  return 0;
}
