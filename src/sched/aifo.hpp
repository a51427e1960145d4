// AIFO (Yu et al., SIGCOMM 2021): programmable packet scheduling with a
// single FIFO queue plus admission control.
//
// Instead of reordering packets, AIFO decides *at arrival* whether a packet
// deserves its place: it keeps a sliding window of the last W arrival ranks
// and admits a packet of rank r only when the buffer headroom, scaled by
// the burst-tolerance parameter k, covers r's quantile in that window:
//
//     1/(1-k) * (C - c)/C  >=  |{x in window : x < r}| / |window|
//
// with C the port's admission capacity and c its occupancy at arrival. Low
// ranks are always admitted; high ranks are shed first as the buffer fills,
// so departures approximate the rank order while the data path stays one
// FIFO. Dequeue is strictly FIFO in arrival order (across the port's
// physical queues, emulated by selecting the head packet with the smallest
// global arrival sequence).
//
// Rejections surface through the Scheduler::admit() seam as *scheduler*
// drops -- the port accounts them separately from shared-buffer tail drops
// and AQM behaviour (see Port::Counters::sched_drops).
#pragma once

#include <cstdint>
#include <vector>

#include "net/scheduler.hpp"
#include "sched/rank.hpp"
#include "sim/fifo.hpp"

namespace tcn::sched {

class AifoScheduler final : public net::Scheduler {
 public:
  /// `window` is the rank-sample window size W (>= 1); `k` in [0, 1) scales
  /// the admission headroom (larger k admits more aggressively). Throws
  /// std::invalid_argument on a bad parameter or null rank program.
  AifoScheduler(std::size_t window, double k, sched::RankProgram rank);

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override;

  bool admit(std::size_t q, const net::Packet& p, sim::Time now,
             std::uint64_t port_bytes, std::uint64_t buffer_limit) override;

  void on_enqueue(std::size_t q, const net::Packet& p, sim::Time now) override;
  std::size_t select(sim::Time now) override;
  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time now) override;

  [[nodiscard]] std::string_view name() const override { return "aifo"; }

  /// The admission predicate, side-effect free: would a packet of rank
  /// `rank` be admitted with the current window at occupancy/capacity?
  /// Monotone: never flips admit->reject as rank decreases or occupancy
  /// decreases (the property the differential battery checks directly).
  [[nodiscard]] bool would_admit(std::int64_t rank, std::uint64_t occupancy,
                                 std::uint64_t capacity) const;

  /// Fraction of windowed ranks strictly below `rank` (0 when empty).
  [[nodiscard]] double rank_quantile(std::int64_t rank) const;

  [[nodiscard]] std::size_t window() const noexcept { return window_.size(); }
  [[nodiscard]] double k() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  struct Entry {
    std::uint64_t seq;   ///< global arrival sequence: FIFO across queues
    std::int64_t rank;   ///< admission-time rank, fed back at service time
  };

  sched::RankProgram rank_;
  double k_;
  // Circular rank window: samples EVERY arrival (admitted or not), so the
  // quantile tracks the offered rank distribution. Linear count per packet
  // over <= W ranks; W defaults to 128, a cache-resident scan.
  std::vector<std::int64_t> window_;
  std::size_t window_head_ = 0;
  std::size_t window_count_ = 0;
  // Global-FIFO emulation over the port's physical queues: per-queue FIFO
  // of (arrival seq, rank); select() takes the smallest head seq.
  std::vector<sim::Fifo<Entry>> entries_;
  std::uint64_t arrivals_ = 0;
  // Rank computed by admit() for the packet the Port is currently
  // admitting; on_enqueue() attaches it to the entry (the Port calls
  // admit then on_enqueue synchronously for the same packet).
  std::int64_t pending_rank_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace tcn::sched
