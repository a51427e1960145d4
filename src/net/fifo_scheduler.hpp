// Trivial single/multi-queue FIFO scheduler (lowest-index non-empty queue).
// Lives in net/ so hosts and unit tests don't need the sched library.
#pragma once

#include "net/scheduler.hpp"

namespace tcn::net {

class FifoScheduler final : public Scheduler {
 public:
  void on_enqueue(std::size_t, const Packet&, sim::Time) override {}

  std::size_t select(sim::Time) override {
    const auto& qs = queues();
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (!qs[i].empty()) return i;
    }
    return 0;  // contract: never reached (a queue is non-empty)
  }

  void on_dequeue(std::size_t, const Packet&, sim::Time) override {}

  [[nodiscard]] std::string_view name() const override { return "fifo"; }
};

}  // namespace tcn::net
