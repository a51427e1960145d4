// PIFO-style programmable scheduler (Sivaraman et al., SIGCOMM 2016).
//
// A rank function assigns each packet an integer rank at enqueue; lower ranks
// depart first. To stay compatible with the per-queue FIFO structure of the
// egress port (and with PIFO hardware, which cannot reorder a flow), the
// scheduler dequeues the globally minimum-rank *head* packet across queues.
// Rank programs that are non-decreasing within a queue (STFQ, per-class
// priorities, virtual times) are therefore scheduled exactly.
//
// TCN needs no changes to operate under any rank program -- that is the
// paper's "generic scheduler" claim, exercised by bench/ablation_pifo.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/scheduler.hpp"
#include "sched/rank.hpp"
#include "sim/fifo.hpp"

namespace tcn::sched {

class PifoScheduler final : public net::Scheduler {
 public:
  /// `rank` computes each packet's rank at enqueue time; sched/rank.hpp
  /// has the STFQ and strict-priority programs.
  explicit PifoScheduler(sched::RankProgram rank);

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override;

  void on_enqueue(std::size_t q, const net::Packet& p, sim::Time now) override;
  std::size_t select(sim::Time now) override;
  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time now) override;

  [[nodiscard]] std::string_view name() const override { return "pifo"; }

 private:
  sched::RankProgram rank_;
  std::vector<sim::Fifo<std::int64_t>> ranks_;  // parallel to queues
};

}  // namespace tcn::sched
