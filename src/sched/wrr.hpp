// Weighted Round Robin: each backlogged queue sends up to `weight` packets
// per visit. Kept for completeness (the paper lists WRR alongside DWRR as a
// round-based scheduler); DWRR is what the evaluation uses.
#pragma once

#include <cstdint>
#include <vector>

#include "net/scheduler.hpp"
#include "sim/fifo.hpp"

namespace tcn::sched {

class WrrScheduler final : public net::Scheduler {
 public:
  explicit WrrScheduler(std::vector<std::uint32_t> weights);

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override;

  void on_enqueue(std::size_t q, const net::Packet& p, sim::Time now) override;
  std::size_t select(sim::Time now) override;
  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time now) override;

  [[nodiscard]] std::string_view name() const override { return "wrr"; }

 private:
  std::vector<std::uint32_t> weights_;
  std::vector<std::uint32_t> credit_;  // packets left this visit
  std::vector<bool> active_;
  sim::Fifo<std::size_t> active_list_;
};

}  // namespace tcn::sched
