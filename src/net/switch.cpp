#include "net/switch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tcn::net {
namespace {

/// splitmix64 finalizer: a strong deterministic mixer for ECMP hashing.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t flow_hash(const Packet& p) {
  // Hash the bidirectionally-asymmetric 5-tuple; data and ACKs of one flow
  // may take different paths, as with real ECMP.
  const std::uint64_t a =
      (static_cast<std::uint64_t>(p.src) << 32) | p.dst;
  const std::uint64_t b =
      (static_cast<std::uint64_t>(p.sport) << 16) | p.dport;
  return mix64(a ^ mix64(b));
}

}  // namespace

Switch::Switch(sim::Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

std::size_t Switch::add_port(PortConfig cfg, std::unique_ptr<Scheduler> sched,
                             std::unique_ptr<Marker> marker) {
  const std::size_t idx = ports_.size();
  ports_.push_back(std::make_unique<Port>(
      sim_, name_ + ".p" + std::to_string(idx), cfg, std::move(sched),
      std::move(marker)));
  return idx;
}

void Switch::connect(std::size_t port, Node* peer, std::size_t peer_ingress) {
  ports_.at(port)->connect(peer, peer_ingress);
}

void Switch::add_route(std::uint32_t dst,
                       const std::vector<std::size_t>& ports) {
  if (dst >= kMaxAddress) {
    throw std::invalid_argument(name_ + ": route address " +
                                std::to_string(dst) + " is not below 2^24");
  }
  for (const std::size_t p : ports) {
    if (p >= ports_.size()) {
      throw std::invalid_argument(name_ + ": route to " + std::to_string(dst) +
                                  " names missing port " + std::to_string(p));
    }
  }
  if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1);
  // A replaced group's members stay behind unused; topologies route each
  // address once.
  routes_[dst] = Route{static_cast<std::uint32_t>(members_.size()),
                       static_cast<std::uint32_t>(ports.size())};
  members_.insert(members_.end(), ports.begin(), ports.end());
}

std::size_t Switch::live_member(const Route& r, std::uint64_t hash,
                                 std::size_t fallback) const {
  const std::uint32_t* group = members_.data() + r.first;
  std::uint32_t live = 0;
  for (std::uint32_t i = 0; i < r.count; ++i) {
    live += ports_[group[i]]->link_up() ? 1 : 0;
  }
  if (live == 0) return fallback;
  std::uint64_t k = hash % live;
  for (std::uint32_t i = 0;; ++i) {
    if (ports_[group[i]]->link_up() && k-- == 0) return group[i];
  }
}

void Switch::receive(PacketPtr p, std::size_t /*ingress*/) {
  const std::uint32_t dst = p->dst;
  if (dst >= routes_.size() || routes_[dst].count == 0) {
    ++unrouted_;
    return;
  }
  const Route r = routes_[dst];
  std::size_t out = members_[r.first];
  if (r.count > 1) {
    const std::uint64_t hash = flow_hash(*p);
    out = members_[r.first + hash % r.count];
    // Steer around dead ECMP members: flows hashed onto a downed link are
    // deterministically rehashed over the live members (like a fabric
    // routing update); flows on healthy links keep their path.
    if (!ports_[out]->link_up()) out = live_member(r, hash, out);
  }
  Port& port = *ports_[out];
  const std::size_t q =
      std::min<std::size_t>(p->dscp, port.num_queues() - 1);
  port.enqueue(std::move(p), q);
}

}  // namespace tcn::net
