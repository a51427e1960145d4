// DCQCN (Zhu et al., SIGCOMM 2015) -- rate-based ECN congestion control for
// RDMA, the transport Sec. 4.3 names when motivating probabilistic TCN
// ("some ECN-based transports, like DCQCN, do require RED-like probabilistic
// marking to alleviate the unfairness problem").
//
// The three algorithm roles:
//   CP (switch): RED-style probabilistic marking -- RedProbabilisticMarker
//       or TcnProbabilisticMarker;
//   NP (receiver): on a CE-marked arrival, send a CNP, at most one per
//       `cnp_interval` (50us);
//   RP (sender): paced at `rate`; on CNP cut multiplicatively by alpha/2 and
//       remember the target rate; recover in the standard three stages
//       (fast recovery -> additive increase -> hyper increase) driven by a
//       timer and a byte counter; alpha decays while no CNPs arrive.
//
// Scope: DCQCN deployments run over PFC (lossless) fabrics; this model
// assumes no drops (size the buffers accordingly) and does not implement
// retransmission. The dcqcn fairness ablation uses it to show why the
// single-threshold marker needs the probabilistic extension.
#pragma once

#include <cstdint>
#include <functional>

#include "net/host.hpp"
#include "sim/time.hpp"

namespace tcn::transport {

struct DcqcnConfig {
  double line_rate_bps = 10e9;  ///< R_max
  /// Starting rate (0 = line rate). Asymmetric starts model flows that were
  /// already throttled -- the regime where marking-profile fairness matters.
  double initial_rate_bps = 0;
  double min_rate_bps = 40e6;
  double g = 1.0 / 256.0;       ///< alpha gain
  sim::Time cnp_interval = 50 * sim::kMicrosecond;   ///< NP-side CNP pacing
  sim::Time alpha_timer = 55 * sim::kMicrosecond;    ///< alpha decay period
  sim::Time rate_timer = 55 * sim::kMicrosecond;     ///< increase-event timer
  std::uint64_t byte_counter = 10'000'000;  ///< increase-event byte threshold (B)
  std::uint32_t fast_recovery_events = 5;  ///< F
  double rai_bps = 40e6;   ///< additive-increase step
  double rhai_bps = 400e6; ///< hyper-increase step
  std::uint32_t mtu = 1'000;  ///< RoCE-style fixed segment payload
};

class DcqcnReceiver {
 public:
  using DeliveryCb = std::function<void(std::uint32_t bytes, sim::Time now)>;

  DcqcnReceiver(net::Host& host, std::uint16_t local_port,
                sim::Time cnp_interval, DeliveryCb on_deliver = nullptr);
  ~DcqcnReceiver();

  DcqcnReceiver(const DcqcnReceiver&) = delete;
  DcqcnReceiver& operator=(const DcqcnReceiver&) = delete;

  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::uint64_t cnps_sent() const noexcept { return cnps_; }

 private:
  void on_data(net::PacketPtr p);

  net::Host& host_;
  std::uint16_t local_port_;
  sim::Time cnp_interval_;
  DeliveryCb on_deliver_;
  sim::Time last_cnp_ = -1;
  std::uint64_t bytes_ = 0;
  std::uint64_t cnps_ = 0;
};

class DcqcnSender {
 public:
  using CompletionCb = std::function<void(sim::Time fct)>;

  DcqcnSender(net::Host& host, std::uint32_t dst, std::uint16_t sport,
              std::uint16_t dport, std::uint64_t flow_id, DcqcnConfig cfg,
              std::uint8_t dscp, CompletionCb on_complete = nullptr);
  ~DcqcnSender();

  DcqcnSender(const DcqcnSender&) = delete;
  DcqcnSender& operator=(const DcqcnSender&) = delete;

  /// Start pumping `size` bytes (0 = unbounded, for fairness experiments).
  void start(std::uint64_t size);
  void stop();

  [[nodiscard]] double rate_bps() const noexcept { return rc_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::uint64_t cnps_received() const noexcept { return cnps_; }

 private:
  void on_cnp(net::PacketPtr p);
  void send_next();
  void rate_decrease();
  void increase_event();
  void on_alpha_timer();
  void on_rate_timer();

  net::Host& host_;
  sim::Simulator& sim_;
  std::uint32_t dst_;
  std::uint16_t sport_;
  std::uint16_t dport_;
  std::uint64_t flow_id_;
  DcqcnConfig cfg_;
  std::uint8_t dscp_;
  CompletionCb on_complete_;

  std::uint64_t size_ = 0;  // 0 = unbounded
  std::uint64_t sent_ = 0;
  sim::Time start_time_ = 0;
  bool running_ = false;
  bool completed_ = false;

  double rc_;  // current rate
  double rt_;  // target rate
  double alpha_ = 1.0;
  bool cnp_since_alpha_timer_ = false;

  // Increase-stage counters.
  std::uint32_t timer_events_ = 0;
  std::uint32_t byte_events_ = 0;
  std::uint64_t bytes_since_event_ = 0;
  std::uint64_t cnps_ = 0;

  sim::EventId pace_event_ = sim::kInvalidEvent;
  sim::EventId alpha_event_ = sim::kInvalidEvent;
  sim::EventId rate_event_ = sim::kInvalidEvent;
};

}  // namespace tcn::transport
