// End host: a NIC egress port plus a transport demultiplexer.
//
// A fixed per-direction stack delay models the end-host contribution to base
// RTT (the paper's leaf-spine setup attributes 80us of the 85.2us RTT to end
// hosts). Delay is applied once on send and once on receive.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/fifo_scheduler.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"

namespace tcn::net {

class Host final : public Node {
 public:
  using Handler = std::function<void(PacketPtr)>;

  Host(sim::Simulator& sim, std::string name, std::uint32_t address,
       PortConfig nic_cfg, sim::Time stack_delay = 0);

  /// Connect the NIC to the far end (normally a switch ingress).
  void connect(Node* peer, std::size_t peer_ingress);

  /// Send a packet through the stack (applies stack delay, then NIC queue).
  void send(PacketPtr p);

  /// Register a receive handler for a local port number. Packets whose dport
  /// matches are delivered to the handler after the stack delay. Throws
  /// std::runtime_error naming the host if the port is already bound.
  void bind(std::uint16_t local_port, Handler h);
  void unbind(std::uint16_t local_port);

  void receive(PacketPtr p, std::size_t ingress) override;

  [[nodiscard]] std::uint32_t address() const noexcept { return address_; }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] Port& nic() noexcept { return *nic_; }
  [[nodiscard]] sim::Time stack_delay() const noexcept { return stack_delay_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Allocate a fresh ephemeral port number, 1024 to 65535, each once per
  /// host. Throws std::runtime_error naming the host once all 64,512 are
  /// handed out.
  std::uint16_t allocate_port();

 private:
  sim::Simulator& sim_;
  std::string name_;
  std::uint32_t address_;
  sim::Time stack_delay_;
  std::unique_ptr<Port> nic_;
  std::unordered_map<std::uint16_t, Handler> handlers_;
  std::uint32_t next_port_ = 1024;
};

}  // namespace tcn::net
