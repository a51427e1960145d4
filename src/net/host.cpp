#include "net/host.hpp"

#include <stdexcept>
#include <utility>

#include "net/marker.hpp"

namespace tcn::net {

Host::Host(sim::Simulator& sim, std::string name, std::uint32_t address,
           PortConfig nic_cfg, sim::Time stack_delay)
    : sim_(sim),
      name_(std::move(name)),
      address_(address),
      stack_delay_(stack_delay) {
  nic_cfg.num_queues = 1;  // hosts transmit through a single FIFO
  nic_ = std::make_unique<Port>(sim_, name_ + ".nic", nic_cfg,
                                std::make_unique<FifoScheduler>(),
                                std::make_unique<NullMarker>());
}

void Host::connect(Node* peer, std::size_t peer_ingress) {
  nic_->connect(peer, peer_ingress);
}

void Host::send(PacketPtr p) {
  p->src = address_;
  if (stack_delay_ == 0) {
    nic_->enqueue(std::move(p), 0);
    return;
  }
  sim_.schedule_in(stack_delay_, [this, pkt = std::move(p)]() mutable {
    nic_->enqueue(std::move(pkt), 0);
  });
}

void Host::bind(std::uint16_t local_port, Handler h) {
  if (!handlers_.try_emplace(local_port, std::move(h)).second) {
    throw std::runtime_error("host " + name_ + ": port " +
                             std::to_string(local_port) + " is already bound");
  }
}

std::uint16_t Host::allocate_port() {
  if (next_port_ > UINT16_MAX) {
    throw std::runtime_error("host " + name_ +
                             ": out of ephemeral ports (1024-65535 all "
                             "handed out)");
  }
  return static_cast<std::uint16_t>(next_port_++);
}

void Host::unbind(std::uint16_t local_port) { handlers_.erase(local_port); }

void Host::receive(PacketPtr p, std::size_t /*ingress*/) {
  auto deliver = [this](PacketPtr pkt) {
    const auto it = handlers_.find(pkt->dport);
    if (it != handlers_.end()) it->second(std::move(pkt));
    // Unbound destinations silently drop (like a closed socket).
  };
  if (stack_delay_ == 0) {
    deliver(std::move(p));
    return;
  }
  sim_.schedule_in(stack_delay_,
                   [deliver, pkt = std::move(p)]() mutable {
                     deliver(std::move(pkt));
                   });
}

}  // namespace tcn::net
