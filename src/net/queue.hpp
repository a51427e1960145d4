// A single FIFO packet queue and the cumulative counts of its events.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/fifo.hpp"
#include "sim/time.hpp"

namespace tcn::net {

/// Everything that happened to one queue since it was built, each event
/// counted once where it happens: push() and pop() count enqueues and
/// dequeues, the owning Port counts marks and drops. Summed over a port's
/// queues this is Port::Counters; sampler channels read it as deltas.
struct QueueCounters {
  std::uint64_t enq_packets = 0;
  std::uint64_t enq_bytes = 0;
  std::uint64_t tx_packets = 0;  ///< dequeued for serialization
  std::uint64_t tx_bytes = 0;
  std::uint64_t sojourn_ns = 0;  ///< summed over dequeues, each clamped at 0
  std::uint64_t marks = 0;       ///< CE marks, enqueue- or dequeue-side
  // Drops, kept apart by cause: the shared buffer's tail drop, an injected
  // fault (downed link, random loss) and the scheduler's admission control
  // (e.g. AIFO's rank-quantile gate).
  std::uint64_t drops = 0;
  std::uint64_t drop_bytes = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_drop_bytes = 0;
  std::uint64_t sched_drops = 0;
  std::uint64_t sched_drop_bytes = 0;

  QueueCounters& operator+=(const QueueCounters& o) noexcept {
    enq_packets += o.enq_packets;
    enq_bytes += o.enq_bytes;
    tx_packets += o.tx_packets;
    tx_bytes += o.tx_bytes;
    sojourn_ns += o.sojourn_ns;
    marks += o.marks;
    drops += o.drops;
    drop_bytes += o.drop_bytes;
    fault_drops += o.fault_drops;
    fault_drop_bytes += o.fault_drop_bytes;
    sched_drops += o.sched_drops;
    sched_drop_bytes += o.sched_drop_bytes;
    return *this;
  }
  bool operator==(const QueueCounters&) const = default;
};

class PacketQueue {
 public:
  /// Append `p`, stamping its enqueue time.
  void push(PacketPtr p, sim::Time now) {
    p->enqueue_ts = now;
    ++counters_.enq_packets;
    counters_.enq_bytes += p->size;
    q_.push_back(std::move(p));
  }

  /// Remove the head packet, which leaves after `now - enqueue_ts` queued.
  PacketPtr pop(sim::Time now) {
    PacketPtr p = std::move(q_.front());
    q_.pop_front();
    ++counters_.tx_packets;
    counters_.tx_bytes += p->size;
    const sim::Time sojourn = now - p->enqueue_ts;
    counters_.sojourn_ns += static_cast<std::uint64_t>(sojourn < 0 ? 0 : sojourn);
    return p;
  }

  /// Head packet, or nullptr when empty.
  [[nodiscard]] const Packet* front() const noexcept {
    return q_.empty() ? nullptr : q_.front().get();
  }

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return counters_.enq_bytes - counters_.tx_bytes;
  }

  [[nodiscard]] const QueueCounters& counters() const noexcept {
    return counters_;
  }
  /// For the owner's marks and drops; push() and pop() count the rest.
  [[nodiscard]] QueueCounters& counters() noexcept { return counters_; }

 private:
  sim::Fifo<PacketPtr> q_;
  QueueCounters counters_;
};

}  // namespace tcn::net
