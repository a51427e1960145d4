#include "transport/tcp_sink.hpp"

#include <algorithm>

namespace tcn::transport {

TcpSink::TcpSink(net::Host& host, std::uint16_t local_port,
                 std::uint8_t ack_dscp, DeliveryCb on_deliver, Options options)
    : host_(host),
      local_port_(local_port),
      ack_dscp_(ack_dscp),
      on_deliver_(std::move(on_deliver)),
      opt_(options) {
  host_.bind(local_port_, [this](net::PacketPtr p) { on_data(std::move(p)); });
}

TcpSink::~TcpSink() {
  if (delack_timer_ != sim::kInvalidEvent) {
    host_.simulator().cancel(delack_timer_);
  }
  host_.unbind(local_port_);
}

void TcpSink::send_ack(bool ece) {
  auto ack = net::make_packet();
  ack->type = net::PacketType::kAck;
  ack->dst = peer_addr_;
  ack->sport = local_port_;
  ack->dport = peer_port_;
  ack->flow = flow_;
  ack->payload = 0;
  ack->size = net::kHeaderBytes;
  ack->ack = rcv_nxt_;
  ack->ece = ece;
  ack->ecn = net::Ecn::kNotEct;
  ack->dscp = ack_dscp_;
  if (opt_.sack) {
    for (const auto& [begin, end] : ooo_) {
      if (ack->sack_count >= ack->sack.size()) break;
      ack->sack[ack->sack_count++] = {begin, end};
    }
  }
  ++acks_;
  host_.send(std::move(ack));
}

void TcpSink::flush_delayed() {
  if (delack_timer_ != sim::kInvalidEvent) {
    host_.simulator().cancel(delack_timer_);
    delack_timer_ = sim::kInvalidEvent;
  }
  if (unacked_segments_ > 0) {
    unacked_segments_ = 0;
    send_ack(pending_ece_);
    pending_ece_ = false;
  }
}

void TcpSink::on_data(net::PacketPtr p) {
  if (p->type != net::PacketType::kData) return;
  peer_addr_ = p->src;
  peer_port_ = p->sport;
  flow_ = p->flow;

  const std::uint64_t begin = p->seq;
  const std::uint64_t end = p->seq + p->payload;
  const std::uint64_t before = rcv_nxt_;
  const bool in_order = begin <= rcv_nxt_ && end > rcv_nxt_;

  if (end > rcv_nxt_) {
    if (in_order) {
      rcv_nxt_ = end;
      // Drain contiguous out-of-order segments.
      auto it = ooo_.begin();
      while (it != ooo_.end() && it->first <= rcv_nxt_) {
        rcv_nxt_ = std::max(rcv_nxt_, it->second);
        it = ooo_.erase(it);
      }
    } else {
      // Hole: stash; merge overlaps lazily on drain.
      auto [it, inserted] = ooo_.emplace(begin, end);
      if (!inserted) it->second = std::max(it->second, end);
    }
  }

  if (rcv_nxt_ > before && on_deliver_) {
    on_deliver_(static_cast<std::uint32_t>(rcv_nxt_ - before),
                host_.simulator().now());
  }

  const bool ece = p->ce();
  if (!opt_.delayed_ack) {
    send_ack(ece);
    return;
  }

  // Delayed-ACK policy: flush immediately on out-of-order data (dupacks
  // drive fast retransmit), on a CE-state change (DCTCP accurate echo), or
  // on the second pending segment; otherwise wait for the timer.
  const bool ce_changed = unacked_segments_ > 0 && ece != pending_ece_;
  if (!in_order || ce_changed) {
    // Acknowledge what is pending first (with its own echo state), then the
    // trigger segment.
    flush_delayed();
    send_ack(ece);
    return;
  }
  pending_ece_ = ece;
  if (++unacked_segments_ >= 2) {
    flush_delayed();
    return;
  }
  delack_timer_ = host_.simulator().schedule_in(
      opt_.delayed_ack_timeout, [this] {
        delack_timer_ = sim::kInvalidEvent;
        if (unacked_segments_ > 0) {
          unacked_segments_ = 0;
          send_ack(pending_ece_);
          pending_ece_ = false;
        }
      });
}

}  // namespace tcn::transport
