// Weighted Fair Queueing, self-clocked (SCFQ) variant.
//
// The paper's qdisc "maintains a virtual time for the head packet of each
// queue; the scheduler chooses the head packet with the smallest virtual
// time" (Sec. 5). We implement SCFQ: on enqueue a packet receives finish tag
//   F = max(V, F_last[q]) + size / w[q]
// where V is the finish tag of the packet currently/last in service. The
// smallest head tag is served. When the port drains completely the virtual
// clock resets.
#pragma once

#include <cstdint>
#include <vector>

#include "net/scheduler.hpp"
#include "sim/fifo.hpp"

namespace tcn::sched {

class WfqScheduler final : public net::Scheduler {
 public:
  explicit WfqScheduler(std::vector<double> weights);

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override;

  void on_enqueue(std::size_t q, const net::Packet& p, sim::Time now) override;
  std::size_t select(sim::Time now) override;
  void on_dequeue(std::size_t q, const net::Packet& p, sim::Time now) override;

  [[nodiscard]] std::string_view name() const override { return "wfq"; }

 private:
  std::vector<double> weights_;
  std::vector<sim::Fifo<double>> tags_;  // finish tags parallel to queues
  std::vector<double> last_finish_;
  double vtime_ = 0.0;
  std::size_t backlog_pkts_ = 0;
};

}  // namespace tcn::sched
