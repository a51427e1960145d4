// Flow-completion-time statistics, bucketed the way the paper reports them:
// all flows / small flows (0, 100KB] (average and 99th percentile) / large
// flows (10MB, inf) -- Sec. 6 "Performance metric".
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "transport/flow.hpp"

namespace tcn::stats {

inline constexpr std::uint64_t kSmallFlowMax = 100'000;       // 100KB
inline constexpr std::uint64_t kLargeFlowMin = 10'000'000;    // 10MB

struct FctSummary {
  std::size_t count = 0;
  double avg_all_us = 0.0;
  std::size_t small_count = 0;
  double avg_small_us = 0.0;
  double p99_small_us = 0.0;
  std::size_t large_count = 0;
  double avg_large_us = 0.0;
  std::uint64_t timeouts = 0;        ///< across all completed flows
  std::uint64_t small_timeouts = 0;  ///< timeouts suffered by small flows
};

class FctCollector {
 public:
  void add(const transport::FlowResult& r);

  [[nodiscard]] FctSummary summary() const;
  [[nodiscard]] std::size_t count() const noexcept { return all_us_.size(); }

 private:
  std::vector<double> all_us_;
  std::vector<double> small_us_;
  std::vector<double> large_us_;
  std::uint64_t timeouts_ = 0;
  std::uint64_t small_timeouts_ = 0;
};

/// O(1)-memory FCT collector for open-loop runs: FctCollector's per-flow
/// vectors cost ~24 bytes/flow (hundreds of MB at 10M+ completions), which
/// would defeat the flow slab's bounded-heap guarantee. This variant keeps
/// running counts/sums for the averages (exact) and a log-linear histogram
/// of small-flow FCTs for the tail, so p99_small_us carries the histogram's
/// <= 1/32 relative bucket error -- the right trade at open-loop scale.
/// Deterministic for identical completion streams.
class StreamingFctCollector {
 public:
  void add(const transport::FlowResult& r);

  [[nodiscard]] FctSummary summary() const;
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  std::size_t count_ = 0;
  double sum_all_us_ = 0.0;
  std::size_t small_count_ = 0;
  double sum_small_us_ = 0.0;
  std::size_t large_count_ = 0;
  double sum_large_us_ = 0.0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t small_timeouts_ = 0;
  obs::LogHistogram small_ns_;  // FCTs in ns: full precision at the tail
};

}  // namespace tcn::stats
