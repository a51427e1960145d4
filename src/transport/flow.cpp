#include "transport/flow.hpp"

#include <utility>

namespace tcn::transport {

std::uint64_t FlowManager::start_flow(net::Host& src, net::Host& dst,
                                      FlowSpec spec) {
  const std::uint64_t id = next_flow_id_++;
  const std::uint16_t sport = src.allocate_port();
  const std::uint16_t dport = dst.allocate_port();

  auto entry = std::make_unique<Entry>();
  entry->sink = std::make_unique<TcpSink>(dst, dport, spec.ack_dscp,
                                          std::move(spec.on_deliver),
                                          TcpSink::Options::from(spec.tcp));

  entry->sender = std::make_unique<TcpSender>(
      src, dst.address(), sport, dport, id, spec.tcp,
      std::move(spec.data_dscp), spec.ack_dscp);

  TcpSender::MessageSpec msg;
  msg.size = spec.size;
  msg.on_complete = [this, id, size = spec.size, service = spec.service,
                     start = src.simulator().now(),
                     flow_cb = std::move(spec.on_complete)](
                        sim::Time fct, std::uint32_t timeouts) {
    const FlowResult r{.flow_id = id, .size = size, .service = service,
                       .start = start, .fct = fct, .timeouts = timeouts};
    results_.push_back(r);
    if (on_complete_) on_complete_(r);
    if (flow_cb) flow_cb(r);
  };

  flows_.push_back(std::move(entry));
  ++flows_started_;
  flows_.back()->sender->enqueue_message(std::move(msg));
  return id;
}

std::uint64_t FlowManager::total_timeouts() const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : flows_) {
    if (e->sender) n += e->sender->timeouts();
  }
  return n;
}

TcpSender* FlowManager::sender(std::uint64_t flow_id) {
  if (flow_id == 0 || flow_id > flows_.size()) return nullptr;
  return flows_[flow_id - 1]->sender.get();
}

}  // namespace tcn::transport
