// MQ-ECN (Bai et al., NSDI 2016): dynamic per-queue RED thresholds for
// round-robin schedulers.
//
// The scheduler's round structure gives a free rate estimate: a backlogged
// queue i sends at most quantum_i per round, so rate_i ~= quantum_i /
// T_round. MQ-ECN marks at enqueue when the queue exceeds
// K_i = rate_i x RTT x lambda. It is the state of the art the paper compares
// against -- and it cannot support WFQ/SP, which have no rounds (the
// factories reject those combinations).
#pragma once

#include <cstdint>

#include "aqm/marker_metrics.hpp"
#include "net/marker.hpp"
#include "net/scheduler.hpp"
#include "sim/time.hpp"

namespace tcn::aqm {

class MqEcnMarker final : public net::Marker {
 public:
  /// `provider` must outlive the marker (it is the port's own round-robin
  /// scheduler). `rtt_lambda` is RTT x lambda, the time component of the
  /// standard threshold.
  MqEcnMarker(const net::RoundRateProvider* provider, sim::Time rtt_lambda);

  bool on_enqueue(const net::MarkContext& ctx, const net::Packet& p) override;

  /// Current dynamic threshold for queue q in bytes (test/trace hook).
  [[nodiscard]] std::uint64_t threshold_bytes(std::size_t q,
                                              sim::Time now) const;

  [[nodiscard]] std::string_view name() const override { return "mq-ecn"; }

 private:
  const net::RoundRateProvider* provider_;
  sim::Time rtt_lambda_;
  MarkerMetrics metrics_;
};

}  // namespace tcn::aqm
