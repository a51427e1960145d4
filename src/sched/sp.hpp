// Strict priority scheduler: queue 0 is the highest priority; the lowest
// non-empty index always wins.
#pragma once

#include "net/scheduler.hpp"

namespace tcn::sched {

class SpScheduler final : public net::Scheduler {
 public:
  void on_enqueue(std::size_t, const net::Packet&, sim::Time) override {}

  std::size_t select(sim::Time) override {
    const auto& qs = queues();
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (!qs[i].empty()) return i;
    }
    return 0;  // contract: a queue is non-empty
  }

  void on_dequeue(std::size_t, const net::Packet&, sim::Time) override {}

  [[nodiscard]] std::string_view name() const override { return "sp"; }
};

}  // namespace tcn::sched
