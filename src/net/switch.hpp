// Output-queued switch with DSCP classification and ECMP routing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/port.hpp"
#include "net/scheduler.hpp"
#include "sim/simulator.hpp"

namespace tcn::net {

/// Output-queued switch. A packet leaves through the egress port its
/// destination's route picks and, as with the prototype's DSCP classifier,
/// through queue min(dscp, num_queues - 1) of that port.
class Switch final : public Node {
 public:
  Switch(sim::Simulator& sim, std::string name);

  /// Create an egress port; returns its index.
  std::size_t add_port(PortConfig cfg, std::unique_ptr<Scheduler> sched,
                       std::unique_ptr<Marker> marker);

  /// Attach the far end of port `port`.
  void connect(std::size_t port, Node* peer, std::size_t peer_ingress);

  /// Addresses at or above this are rejected: the route table is indexed
  /// by address.
  static constexpr std::uint32_t kMaxAddress = std::uint32_t{1} << 24;

  /// Route packets destined to host `dst` out one of `ports` (ECMP when the
  /// group has several members; the 5-tuple hash picks a member so a flow
  /// stays on one path). A second call for `dst` replaces its group. Throws
  /// std::invalid_argument for dst >= kMaxAddress or a port this switch
  /// does not have.
  void add_route(std::uint32_t dst, const std::vector<std::size_t>& ports);

  void receive(PacketPtr p, std::size_t ingress) override;

  [[nodiscard]] Port& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Packets that arrived with no matching route (diagnostics).
  [[nodiscard]] std::uint64_t unrouted() const noexcept { return unrouted_; }

 private:
  /// A destination's ECMP group: `count` port indices starting at
  /// members_[first]; count 0 means no route.
  struct Route {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// The live member that `hash` picks when the member it hashed onto is
  /// down: the (hash % live)-th live one in group order. Returns `fallback`
  /// when no member is up, so the port blackholes the packet.
  [[nodiscard]] std::size_t live_member(const Route& r, std::uint64_t hash,
                                        std::size_t fallback) const;

  sim::Simulator& sim_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  // Routes are dense over host addresses (topo assigns 0..N-1), so a hop
  // indexes one flat table by dst -- no hash, no per-group allocation.
  std::vector<Route> routes_;            // indexed by destination address
  std::vector<std::uint32_t> members_;   // every group's ports, back to back
  std::uint64_t unrouted_ = 0;
};

}  // namespace tcn::net
