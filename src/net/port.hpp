// Egress port: the pipeline the paper's qdisc prototype implements (Sec. 5).
//
//   classify (done by the owning Switch/Host)
//     -> shared-buffer admission (tail drop, first-in-first-serve)
//     -> enqueue ECN marking hook
//     -> packet scheduler
//     -> dequeue ECN marking hook
//     -> serialization on the link + propagation to the peer
//
// The port optionally shapes its drain rate below line rate (the prototype's
// token-bucket rate limiter runs at 99.5% of NIC capacity so queueing stays
// visible to the AQM).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/scheduler.hpp"
#include "net/trace.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace tcn::net {

/// Per-packet link-fault decision hook (fault injection). Consulted when a
/// packet finishes serialization; returning true blackholes it on the wire.
/// Concrete models (Bernoulli, Gilbert-Elliott) live in src/fault.
class LossModel {
 public:
  virtual ~LossModel() = default;
  virtual bool should_drop(const Packet& p, sim::Time now) = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

struct PortConfig {
  std::uint64_t rate_bps = 1'000'000'000;
  sim::Time prop_delay = 0;
  std::size_t num_queues = 1;
  /// Shared buffer across all queues of the port; admission is tail drop on
  /// the port total (first-in-first-serve, as on the testbed switch).
  std::uint64_t buffer_bytes = UINT64_MAX;
  /// Drain-rate shaping as a fraction of rate_bps (Sec. 5 rate limiter).
  double rate_limit_fraction = 1.0;
};

class Port {
 public:
  Port(sim::Simulator& sim, std::string name, PortConfig cfg,
       std::unique_ptr<Scheduler> sched, std::unique_ptr<Marker> marker);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Attach the far end of the link.
  void connect(Node* peer, std::size_t peer_ingress);

  /// Submit a packet to queue `queue`. May drop (shared buffer full, link
  /// down) or mark. Throws std::invalid_argument on an out-of-range queue.
  void enqueue(PacketPtr p, std::size_t queue);

  /// Take the link down (blackholing in-flight and newly submitted packets
  /// into the fault_drops counter) or bring it back up (resuming the drain
  /// of whatever survived in the buffer).
  void set_link_up(bool up);
  [[nodiscard]] bool link_up() const noexcept { return link_up_; }

  /// Attach (or detach with nullptr) a random-loss model applied to packets
  /// leaving the port; it must outlive the port or be detached first.
  void set_loss_model(LossModel* m) noexcept { loss_ = m; }

  /// Transient shared-buffer squeeze: cap admission below the configured
  /// buffer. Resident packets are not evicted; new arrivals tail-drop until
  /// the occupancy drains under the new limit.
  void set_buffer_limit(std::uint64_t bytes) noexcept { buffer_limit_ = bytes; }
  void reset_buffer_limit() noexcept { buffer_limit_ = cfg_.buffer_bytes; }
  [[nodiscard]] std::uint64_t buffer_limit() const noexcept {
    return buffer_limit_;
  }

  using Counters = QueueCounters;

  /// Totals over the port's queues.
  [[nodiscard]] Counters counters() const noexcept;
  /// What happened to queue `q`, the packets it was classified into.
  [[nodiscard]] const QueueCounters& queue_counters(std::size_t q) const {
    return queues_.at(q).counters();
  }
  [[nodiscard]] std::uint64_t queue_bytes(std::size_t q) const {
    return queues_[q].bytes();
  }
  [[nodiscard]] std::size_t queue_packets(std::size_t q) const {
    return queues_[q].size();
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  [[nodiscard]] std::size_t num_queues() const noexcept {
    return queues_.size();
  }
  [[nodiscard]] std::uint64_t effective_rate_bps() const noexcept {
    return effective_rate_bps_;
  }
  [[nodiscard]] const PortConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Far end of the link (nullptr until connect()).
  [[nodiscard]] Node* peer() const noexcept { return peer_; }

  /// Attach (or detach with nullptr) a trace observer; it must outlive the
  /// port or be detached first.
  void set_observer(PortObserver* obs) noexcept { observer_ = obs; }

 private:
  /// Handles into the run's MetricsRegistry, resolved once at construction
  /// from MetricsRegistry::current(); null when no registry scope is
  /// installed, so each hot-path publish site costs one predictable branch.
  /// The registry reads enqueues, dequeues and drops from QueueCounters.
  struct Metrics {
    std::vector<obs::LogHistogram*> q_sojourn;
    obs::Counter* marks_enqueue = nullptr;
    obs::Counter* marks_dequeue = nullptr;
    obs::LogHistogram* mark_sojourn = nullptr;
    obs::LogHistogram* interdeq_gap = nullptr;
  };

  void try_transmit();
  void emit(TraceEvent event, const Packet& p, std::size_t queue,
            sim::Time sojourn = 0);
  void fault_drop(const Packet& p, std::size_t queue);
  void resolve_metrics();
  void resolve_timeseries();

  sim::Simulator& sim_;
  std::string name_;
  PortConfig cfg_;
  std::uint64_t effective_rate_bps_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<Marker> marker_;
  /// Each queue counts its own events; sampler channels and the metrics
  /// registry read those counts.
  std::vector<PacketQueue> queues_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t buffer_limit_;
  bool busy_ = false;
  bool link_up_ = true;
  LossModel* loss_ = nullptr;
  Node* peer_ = nullptr;
  std::size_t peer_ingress_ = 0;
  PortObserver* observer_ = nullptr;
  Metrics metrics_;
  sim::Time last_dequeue_ = -1;  // -1: no dequeue yet (gap undefined)
};

}  // namespace tcn::net
