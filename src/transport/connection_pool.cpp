#include "transport/connection_pool.hpp"

namespace tcn::transport {

ConnectionPool::Connection& ConnectionPool::idle_connection(
    net::Host& src, net::Host& dst, const FlowSpec& spec) {
  auto& list = conns_[{src.address(), dst.address()}];
  for (auto& c : list) {
    if (c->sender->pending_messages() == 0) return *c;
  }
  // All busy (or none yet): open a new connection, as the testbed client
  // does when no connection is available.
  auto conn = std::make_unique<Connection>();
  const std::uint16_t sport = src.allocate_port();
  const std::uint16_t dport = dst.allocate_port();
  conn->sink = std::make_unique<TcpSink>(dst, dport, spec.ack_dscp,
                                         spec.on_deliver,
                                         TcpSink::Options::from(spec.tcp));
  conn->sender = std::make_unique<TcpSender>(
      src, dst.address(), sport, dport,
      /*flow_id=*/0x10000000ULL + connections_created_, spec.tcp,
      /*data_dscp=*/nullptr, spec.ack_dscp);
  ++connections_created_;
  list.push_back(std::move(conn));
  return *list.back();
}

std::uint64_t ConnectionPool::submit(net::Host& src, net::Host& dst,
                                     FlowSpec spec) {
  const std::uint64_t id = next_msg_id_++;
  Connection& conn = idle_connection(src, dst, spec);

  TcpSender::MessageSpec msg;
  msg.size = spec.size;
  msg.dscp = std::move(spec.data_dscp);
  const std::uint64_t size = spec.size;
  const std::uint32_t service = spec.service;
  const sim::Time arrival = src.simulator().now();
  msg.on_complete = [this, id, size, service, arrival,
                     flow_cb = std::move(spec.on_complete)](
                        sim::Time fct, std::uint32_t timeouts) {
    FlowResult r;
    r.flow_id = id;
    r.size = size;
    r.service = service;
    r.start = arrival;
    r.fct = fct;
    r.timeouts = timeouts;
    results_.push_back(r);
    if (on_complete_) on_complete_(r);
    if (flow_cb) flow_cb(r);
  };
  conn.sender->enqueue_message(std::move(msg));
  return id;
}

}  // namespace tcn::transport
