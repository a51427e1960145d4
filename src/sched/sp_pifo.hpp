// SP-PIFO (Alcoz et al., NSDI 2020): approximating a PIFO with a small
// number of strict-priority levels.
//
// Each of the L levels carries a rank bound q_i. An arriving packet of rank
// r scans from the lowest-priority level upward and lands in the first
// level whose bound is <= r, pushing that bound up to r ("push-up"). A
// packet ranked below even the highest-priority bound triggers the
// adaptation step: every bound is decreased by the miss cost q_0 - r
// ("push-down") and the packet enters the top level. Bounds therefore chase
// the arriving rank distribution, and the scheduling error (rank
// inversions) stays bounded instead of growing with queue depth.
//
// Like the exact PifoScheduler, this implementation keeps the egress port's
// per-queue FIFO structure: packets stay in their classified physical
// queue, each remembers the *level* SP-PIFO assigned it plus a global
// arrival sequence, and select() dequeues the head packet with the
// lexicographically smallest (level, arrival) -- strict priority across
// levels, FIFO within a level, restricted to head packets (the same
// head-packet compromise PifoScheduler documents).
#pragma once

#include <cstdint>
#include <vector>

#include "net/scheduler.hpp"
#include "sched/rank.hpp"
#include "sim/fifo.hpp"

namespace tcn::sched {

class SpPifoScheduler final : public net::Scheduler {
 public:
  /// `levels` is the number of strict-priority levels (>= 2; hardware
  /// SP-PIFO uses the 8 queues of a switch port). Throws
  /// std::invalid_argument on levels < 2 or a null rank program.
  SpPifoScheduler(std::size_t levels, sched::RankProgram rank);

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override;

  void on_enqueue(std::size_t q, const net::Packet& p, sim::Time now) override;
  std::size_t select(sim::Time now) override;
  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time now) override;

  [[nodiscard]] std::string_view name() const override { return "sp-pifo"; }

  [[nodiscard]] std::size_t levels() const noexcept { return bounds_.size(); }
  /// Current rank bound of level `l` (level 0 = highest priority).
  [[nodiscard]] std::int64_t bound(std::size_t l) const { return bounds_.at(l); }
  /// Adaptation telemetry: events that pushed every bound down (the
  /// paper's cost step).
  [[nodiscard]] std::uint64_t push_downs() const noexcept {
    return push_downs_;
  }
  /// Level assigned to the most recently enqueued packet (test hook).
  [[nodiscard]] std::size_t last_level() const noexcept { return last_level_; }

 private:
  /// The paper's mapping: scan bottom-up, push-up on hit, push-down on miss.
  std::size_t map_to_level(std::int64_t rank);

  struct Entry {
    std::uint32_t level;
    std::uint64_t arrival;  ///< global arrival sequence: FIFO within a level
    std::int64_t rank;      ///< original rank, fed back at service time
  };

  sched::RankProgram rank_;
  std::vector<std::int64_t> bounds_;       // per level, level 0 = highest
  std::vector<sim::Fifo<Entry>> entries_;  // parallel to the physical queues
  std::uint64_t arrivals_ = 0;
  std::uint64_t push_downs_ = 0;
  std::size_t last_level_ = 0;
};

}  // namespace tcn::sched
