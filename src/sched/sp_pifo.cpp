#include "sched/sp_pifo.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace tcn::sched {

SpPifoScheduler::SpPifoScheduler(std::size_t levels, sched::RankProgram rank)
    : rank_(std::move(rank)) {
  if (levels < 2) {
    throw std::invalid_argument("SpPifoScheduler: levels must be >= 2");
  }
  if (!rank_.rank) {
    throw std::invalid_argument("SpPifoScheduler: rank fn required");
  }
  bounds_.assign(levels, 0);
}

void SpPifoScheduler::bind(const std::vector<net::PacketQueue>* queues,
                           std::uint64_t link_rate_bps) {
  Scheduler::bind(queues, link_rate_bps);
  entries_.resize(queues->size());
}

std::size_t SpPifoScheduler::map_to_level(std::int64_t rank) {
  // Scan from the lowest-priority level toward the top for the first bound
  // the rank clears; enqueue there and push the bound up to the rank.
  for (std::size_t l = bounds_.size(); l-- > 1;) {
    if (bounds_[l] <= rank) {
      bounds_[l] = rank;
      return l;
    }
  }
  if (bounds_[0] <= rank) {
    bounds_[0] = rank;
    return 0;
  }
  // The rank undercuts even the highest-priority bound: the paper's
  // adaptation step subtracts the miss cost from every bound (so the whole
  // ladder slides down toward the new rank regime) and admits the packet at
  // the top. bounds_[0] lands exactly on `rank`.
  const std::int64_t cost = bounds_[0] - rank;
  for (std::int64_t& b : bounds_) b -= cost;
  ++push_downs_;
  return 0;
}

void SpPifoScheduler::on_enqueue(std::size_t q, const net::Packet& p,
                                 sim::Time now) {
  const std::int64_t r = rank_.rank(p, q, now);
  last_level_ = map_to_level(r);
  entries_[q].push_back(
      {static_cast<std::uint32_t>(last_level_), arrivals_++, r});
}

std::size_t SpPifoScheduler::select(sim::Time) {
  std::size_t best = SIZE_MAX;
  Entry best_e{0, 0, 0};
  for (std::size_t q = 0; q < entries_.size(); ++q) {
    if (entries_[q].empty()) continue;
    const Entry& e = entries_[q].front();
    if (best == SIZE_MAX || e.level < best_e.level ||
        (e.level == best_e.level && e.arrival < best_e.arrival)) {
      best = q;
      best_e = e;
    }
  }
  assert(best != SIZE_MAX);
  return best;
}

void SpPifoScheduler::on_dequeue(std::size_t q, const net::Packet&,
                                 sim::Time) {
  assert(!entries_[q].empty());
  if (rank_.on_service) rank_.on_service(entries_[q].front().rank);
  entries_[q].pop_front();
}

}  // namespace tcn::sched
