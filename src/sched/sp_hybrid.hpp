// SP/WFQ and SP/DWRR hybrids (Sec. 5): the first `num_sp` queues are strict
// priority (queue 0 highest); the remaining queues are handled by an inner
// scheduler, served only when every SP queue is empty.
//
// The inner scheduler is bound to the full queue vector but is only ever
// notified about (and asked to choose among) indices >= num_sp. DWRR and WFQ
// satisfy this because their select() consults only queues their own state
// marks backlogged; do not use FifoScheduler/SpScheduler as the inner.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/scheduler.hpp"

namespace tcn::sched {

class SpHybridScheduler final : public net::Scheduler {
 public:
  SpHybridScheduler(std::size_t num_sp, std::unique_ptr<net::Scheduler> inner);

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override;

  void on_enqueue(std::size_t q, const net::Packet& p, sim::Time now) override;
  std::size_t select(sim::Time now) override;
  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time now) override;

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] std::size_t num_sp() const noexcept { return num_sp_; }
  [[nodiscard]] net::Scheduler& inner() noexcept { return *inner_; }

 private:
  std::size_t num_sp_;
  std::unique_ptr<net::Scheduler> inner_;
  std::string name_;
};

}  // namespace tcn::sched
