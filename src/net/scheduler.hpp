// Packet scheduler interface.
//
// An egress Port owns N FIFO queues; a Scheduler decides which non-empty
// queue the next departing packet comes from. Implementations live in
// src/sched; this header only defines the contract so net/ stays the bottom
// layer.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/time.hpp"

namespace tcn::net {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once by the owning Port before any traffic. `queues` outlives the
  /// scheduler; `link_rate_bps` is the port's effective drain rate.
  virtual void bind(const std::vector<PacketQueue>* queues,
                    std::uint64_t link_rate_bps) {
    queues_ = queues;
    link_rate_bps_ = link_rate_bps;
  }

  /// Admission control, consulted by the Port after the shared-buffer
  /// tail-drop check and before any enqueue accounting. Returning false
  /// rejects the packet: the port counts it as a *scheduler* drop (distinct
  /// from buffer and fault drops) and neither on_enqueue nor the marker
  /// sees it. `port_bytes` is the port's occupancy before this packet;
  /// `buffer_limit` is the shared-buffer capacity (UINT64_MAX = unlimited).
  /// Default: admit everything (work-conserving schedulers never drop).
  virtual bool admit(std::size_t q, const Packet& p, sim::Time now,
                     std::uint64_t port_bytes, std::uint64_t buffer_limit) {
    (void)q;
    (void)p;
    (void)now;
    (void)port_bytes;
    (void)buffer_limit;
    return true;
  }

  /// A packet was appended to queue `q` (already counted in the queue).
  virtual void on_enqueue(std::size_t q, const Packet& p, sim::Time now) = 0;

  /// Choose the queue the next departure comes from. Called exactly once per
  /// departure, only when at least one queue is non-empty; must return a
  /// non-empty queue's index. May mutate scheduler state (deficits, grants).
  virtual std::size_t select(sim::Time now) = 0;

  /// The head packet of queue `q` was removed (already uncounted).
  virtual void on_dequeue(std::size_t q, const Packet& p, sim::Time now) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

 protected:
  [[nodiscard]] const std::vector<PacketQueue>& queues() const {
    return *queues_;
  }
  [[nodiscard]] std::uint64_t link_rate_bps() const noexcept {
    return link_rate_bps_;
  }

 private:
  const std::vector<PacketQueue>* queues_ = nullptr;
  std::uint64_t link_rate_bps_ = 0;
};

/// Implemented by round-robin schedulers (DWRR/WRR) that can estimate a
/// queue's share of the link from their round time -- the hook MQ-ECN needs
/// (Sec. 3.3: quantum_i / T_round).
class RoundRateProvider {
 public:
  virtual ~RoundRateProvider() = default;
  /// Estimated drain rate of queue `q` in bits/s at time `now`.
  [[nodiscard]] virtual double queue_rate_bps(std::size_t q,
                                              sim::Time now) const = 0;
};

}  // namespace tcn::net
