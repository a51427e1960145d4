// TCN: Time-based Congestion Notification (Sec. 4) -- the paper's
// contribution.
//
// A departing packet is CE-marked iff its instantaneous sojourn time in the
// queue exceeds a static threshold T = RTT x lambda. The decision is
// stateless (no per-queue state, no time windows), independent of the queue's
// drain rate, and therefore valid under any packet scheduler.
//
// TcnProbabilisticMarker is the RED-like extension of Sec. 4.3 for transports
// such as DCQCN that need probabilistic marking: below Tmin never mark, above
// Tmax always mark, in between mark with probability growing linearly to
// Pmax.
#pragma once

#include "aqm/marker_metrics.hpp"
#include "net/marker.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace tcn::aqm {

class TcnMarker final : public net::Marker {
 public:
  /// `threshold` is the sojourn-time marking threshold T = RTT x lambda.
  explicit TcnMarker(sim::Time threshold);

  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override;

  [[nodiscard]] std::string_view name() const override { return "tcn"; }
  [[nodiscard]] sim::Time threshold() const noexcept { return threshold_; }

 private:
  sim::Time threshold_;
  MarkerMetrics metrics_;
};

class TcnProbabilisticMarker final : public net::Marker {
 public:
  TcnProbabilisticMarker(sim::Time t_min, sim::Time t_max, double p_max,
                         std::uint64_t seed = 1);

  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override;

  /// Marking probability for a given sojourn time (deterministic part).
  [[nodiscard]] double probability(sim::Time sojourn) const;

  [[nodiscard]] std::string_view name() const override { return "tcn-prob"; }

 private:
  sim::Time t_min_;
  sim::Time t_max_;
  double p_max_;
  sim::Rng rng_;
  MarkerMetrics metrics_;
};

}  // namespace tcn::aqm
