// Deficit Weighted Round Robin (Sec. 5 prototype description):
//
//   - an active list holds backlogged queues; a queue activating on enqueue
//     joins the tail with zero deficit;
//   - when a queue reaches the head in a fresh visit it earns its quantum;
//   - it transmits while its head packet fits in the deficit, then rotates
//     to the tail keeping the residual deficit;
//   - a queue that empties leaves the list and forfeits its deficit.
//
// The scheduler also tracks per-queue round times (time between consecutive
// quantum grants while backlogged) smoothed with beta, which is exactly the
// rate estimate MQ-ECN needs: rate_i = quantum_i / T_round_i (Sec. 3.3).
// After an idle period longer than `idle_reset` the smoothed round time is
// reset (MQ-ECN's T_idle rule).
#pragma once

#include <cstdint>
#include <vector>

#include "net/scheduler.hpp"
#include "sim/fifo.hpp"

namespace tcn::sched {

class DwrrScheduler final : public net::Scheduler,
                            public net::RoundRateProvider {
 public:
  /// `quanta[i]` is queue i's per-round byte allowance (must be > 0 and at
  /// least one MTU to guarantee progress). `beta` smooths round-time samples:
  /// T = beta*T + (1-beta)*sample. `idle_reset` is MQ-ECN's T_idle.
  explicit DwrrScheduler(std::vector<std::uint64_t> quanta, double beta = 0.75,
                         sim::Time idle_reset = 12 * sim::kMicrosecond);

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override;

  void on_enqueue(std::size_t q, const net::Packet& p, sim::Time now) override;
  std::size_t select(sim::Time now) override;
  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time now) override;

  [[nodiscard]] std::string_view name() const override { return "dwrr"; }

  // RoundRateProvider
  [[nodiscard]] double queue_rate_bps(std::size_t q,
                                      sim::Time now) const override;

  [[nodiscard]] std::uint64_t quantum(std::size_t q) const {
    return quanta_.at(q);
  }

 private:
  struct QState {
    bool active = false;        // in the active list
    bool fresh_visit = true;    // earns quantum on reaching the head
    std::uint64_t deficit = 0;  // bytes
    sim::Time last_grant = -1;  // previous quantum-grant time (-1 = none)
    sim::Time deactivated = -1;
  };

  std::vector<std::uint64_t> quanta_;
  double beta_;
  sim::Time idle_reset_;
  sim::Fifo<std::size_t> active_list_;
  std::vector<QState> state_;
  std::vector<sim::Time> smoothed_round_;
  std::size_t in_service_ = SIZE_MAX;  // queue returned by last select()
};

}  // namespace tcn::sched
