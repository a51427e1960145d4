// PIE (Pan et al., HPSR 2013) in mark mode -- the AQM whose departure-rate
// estimator the paper borrows for Algorithm 1 (Sec. 3.3). Completing the
// family lets the library compare TCN against the full controller, not just
// its measurement stage.
//
// Per queue: estimated queueing delay qdelay = qlen / avg_drain_rate (from
// the Algorithm-1 estimator); every t_update the marking probability moves
// by the PI control law
//     p += alpha * (qdelay - target) + beta * (qdelay - qdelay_old)
// and arrivals are marked with probability p. The update runs lazily from
// the enqueue/dequeue hooks (markers have no timers), which is exact for a
// busy queue and harmless for an idle one (p also decays when the queue
// empties, as in the reference implementation).
#pragma once

#include <cstdint>
#include <vector>

#include "aqm/marker_metrics.hpp"
#include "aqm/rate_estimator.hpp"
#include "net/marker.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace tcn::aqm {

struct PieConfig {
  sim::Time target = 20 * sim::kMicrosecond;   ///< datacenter-scale target
  sim::Time t_update = 30 * sim::kMicrosecond; ///< control period
  double alpha = 0.125;  ///< proportional gain (per target of error)
  double beta = 1.25;    ///< derivative gain
  std::uint64_t dq_thresh = 10'000;  ///< Algorithm-1 measurement window
  double ewma_w = 0.875;
};

class PieMarker final : public net::Marker {
 public:
  PieMarker(std::size_t num_queues, PieConfig cfg, std::uint64_t seed = 1);

  bool on_enqueue(const net::MarkContext& ctx, const net::Packet& p) override;
  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override;

  /// Current marking probability of queue q (test hook).
  [[nodiscard]] double probability(std::size_t q) const {
    return states_.at(q).p;
  }
  /// Latest delay estimate of queue q in ns (test hook).
  [[nodiscard]] sim::Time qdelay(std::size_t q) const {
    return states_.at(q).qdelay;
  }

  [[nodiscard]] std::string_view name() const override { return "pie"; }

 private:
  struct QState {
    DepartureRateEstimator estimator;
    double p = 0.0;
    sim::Time qdelay = 0;
    sim::Time qdelay_old = 0;
    sim::Time next_update = 0;

    explicit QState(const PieConfig& cfg)
        : estimator(cfg.dq_thresh, cfg.ewma_w) {}
  };

  void maybe_update(QState& s, const net::MarkContext& ctx);
  bool decide(QState& s, const net::MarkContext& ctx);

  PieConfig cfg_;
  std::vector<QState> states_;
  sim::Rng rng_;
  MarkerMetrics metrics_;
};

}  // namespace tcn::aqm
