// Algorithm 1 (Sec. 3.3): departure-rate (queue capacity) measurement, the
// best known general technique (from PIE) -- and the component whose
// dq_thresh tradeoff motivates TCN.
//
// A measurement cycle starts only when the backlog is at least dq_thresh (so
// the queue stays busy throughout) and ends once dq_thresh bytes have
// departed; the cycle's dq_rate sample is EWMA-smoothed into avg_rate.
//
// IdealRedMarker combines one estimator per queue with Eq. 2: mark at enqueue
// when the queue exceeds avg_rate x RTT x lambda. This is the "ideal
// ECN/RED" of Sec. 3 evaluated in Fig. 2 and Fig. 5b.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "aqm/marker_metrics.hpp"
#include "net/marker.hpp"
#include "sim/time.hpp"

namespace tcn::aqm {

class DepartureRateEstimator {
 public:
  /// `w` is the EWMA weight on the previous average (paper: 0.875).
  DepartureRateEstimator(std::uint64_t dq_thresh_bytes, double w = 0.875);

  /// Record a departure of `bytes` at `now` with `qlen_bytes` backlog
  /// remaining. Returns true when this departure completed a cycle (a fresh
  /// sample was produced).
  bool on_departure(sim::Time now, std::uint32_t bytes,
                    std::uint64_t qlen_bytes);

  /// Latest raw sample in bytes/sec (0 until the first cycle completes).
  [[nodiscard]] double sample_rate_Bps() const noexcept { return dq_rate_; }
  /// Smoothed rate in bytes/sec (0 until the first cycle completes).
  [[nodiscard]] double avg_rate_Bps() const noexcept { return avg_rate_; }
  [[nodiscard]] bool has_estimate() const noexcept { return avg_rate_ > 0.0; }
  [[nodiscard]] std::uint64_t dq_thresh() const noexcept { return dq_thresh_; }

 private:
  std::uint64_t dq_thresh_;
  double w_;
  bool is_measure_ = false;
  std::uint64_t dq_count_ = 0;
  sim::Time dq_start_ = 0;
  double dq_rate_ = 0.0;
  double avg_rate_ = 0.0;
};

class IdealRedMarker final : public net::Marker {
 public:
  /// Called whenever some queue's estimator produces a fresh sample -- used
  /// by the Fig. 2 harness to trace convergence.
  using SampleObserver = std::function<void(
      std::size_t queue, sim::Time now, double sample_Bps, double avg_Bps)>;

  IdealRedMarker(std::size_t num_queues, std::uint64_t dq_thresh_bytes,
                 sim::Time rtt_lambda, double w = 0.875);

  bool on_enqueue(const net::MarkContext& ctx, const net::Packet& p) override;
  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override;

  void set_sample_observer(SampleObserver obs) { observer_ = std::move(obs); }

  [[nodiscard]] const DepartureRateEstimator& estimator(std::size_t q) const {
    return estimators_.at(q);
  }

  /// Dynamic threshold of queue q in bytes; falls back to the link-rate
  /// standard threshold until the first sample exists.
  [[nodiscard]] std::uint64_t threshold_bytes(std::size_t q,
                                              std::uint64_t link_rate_bps) const;

  [[nodiscard]] std::string_view name() const override { return "ideal-red"; }

 private:
  std::vector<DepartureRateEstimator> estimators_;
  sim::Time rtt_lambda_;
  SampleObserver observer_;
  MarkerMetrics metrics_;
  /// Raw per-cycle rate samples (bits/sec) across all queues -- the series
  /// Fig. 2 summarizes. Null when metrics are disabled.
  obs::LogHistogram* sample_bps_ = nullptr;
};

}  // namespace tcn::aqm
