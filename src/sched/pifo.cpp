#include "sched/pifo.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

namespace tcn::sched {

PifoScheduler::PifoScheduler(sched::RankProgram rank) : rank_(std::move(rank)) {
  if (!rank_.rank) {
    throw std::invalid_argument("PifoScheduler: rank fn required");
  }
}

void PifoScheduler::bind(const std::vector<net::PacketQueue>* queues,
                         std::uint64_t link_rate_bps) {
  Scheduler::bind(queues, link_rate_bps);
  ranks_.resize(queues->size());
}

void PifoScheduler::on_enqueue(std::size_t q, const net::Packet& p,
                               sim::Time now) {
  ranks_[q].push_back(rank_.rank(p, q, now));
}

std::size_t PifoScheduler::select(sim::Time) {
  std::size_t best = SIZE_MAX;
  std::int64_t best_rank = 0;
  for (std::size_t q = 0; q < ranks_.size(); ++q) {
    if (ranks_[q].empty()) continue;
    const std::int64_t r = ranks_[q].front();
    if (best == SIZE_MAX || r < best_rank) {
      best = q;
      best_rank = r;
    }
  }
  assert(best != SIZE_MAX);
  return best;
}

void PifoScheduler::on_dequeue(std::size_t q, const net::Packet&, sim::Time) {
  assert(!ranks_[q].empty());
  if (rank_.on_service) rank_.on_service(ranks_[q].front());
  ranks_[q].pop_front();
}

}  // namespace tcn::sched
