// Full RED/ECN with the classic three-parameter profile (Sec. 2.1): below
// K_min never mark, above K_max always mark, in between mark with
// probability rising linearly to P_max. Uses instantaneous occupancy (the
// datacenter simplification) -- this is the queue-length counterpart of the
// probabilistic TCN extension and the marking profile DCQCN's CP algorithm
// expects on switches.
#pragma once

#include <cstdint>

#include "aqm/marker_metrics.hpp"
#include "net/marker.hpp"
#include "sim/random.hpp"

namespace tcn::aqm {

class RedProbabilisticMarker final : public net::Marker {
 public:
  RedProbabilisticMarker(std::uint64_t k_min_bytes, std::uint64_t k_max_bytes,
                         double p_max, std::uint64_t seed = 1);

  bool on_enqueue(const net::MarkContext& ctx, const net::Packet& p) override;

  /// Deterministic part of the decision (test hook).
  [[nodiscard]] double probability(std::uint64_t queue_bytes) const;

  [[nodiscard]] std::string_view name() const override { return "red-prob"; }

 private:
  std::uint64_t k_min_;
  std::uint64_t k_max_;
  double p_max_;
  sim::Rng rng_;
  MarkerMetrics metrics_;
};

}  // namespace tcn::aqm
