// TCP sink: reassembles the byte stream and acknowledges with per-packet
// accurate ECN echo (the ACK's ECE mirrors the data packet's CE, as DCTCP
// requires).
//
// Options (from TcpConfig): SACK blocks describing out-of-order data, and
// delayed ACKs (every second in-order segment or a timeout) -- delayed ACKs
// are still flushed immediately whenever the CE state changes or data
// arrives out of order, so loss recovery and DCTCP's echo stay exact.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/host.hpp"
#include "transport/tcp.hpp"

namespace tcn::transport {

struct SinkOptions {
  bool sack = false;
  bool delayed_ack = false;
  sim::Time delayed_ack_timeout = 1 * sim::kMillisecond;

  static SinkOptions from(const TcpConfig& cfg) {
    return SinkOptions{cfg.sack, cfg.delayed_ack, cfg.delayed_ack_timeout};
  }
};

class TcpSink {
 public:
  /// `on_deliver(bytes, now)` fires when in-order bytes are handed to the
  /// application -- goodput meters hook here.
  using DeliveryCb = std::function<void(std::uint32_t bytes, sim::Time now)>;
  using Options = SinkOptions;

  TcpSink(net::Host& host, std::uint16_t local_port, std::uint8_t ack_dscp,
          DeliveryCb on_deliver = nullptr, Options options = {});
  ~TcpSink();

  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept {
    return rcv_nxt_;
  }
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_; }

 private:
  void on_data(net::PacketPtr p);
  void send_ack(bool ece);
  void flush_delayed();

  net::Host& host_;
  std::uint16_t local_port_;
  std::uint8_t ack_dscp_;
  DeliveryCb on_deliver_;
  Options opt_;

  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  // seq -> end (out of order)
  std::uint64_t acks_ = 0;

  // Peer identity learned from the first data packet (used for ACKs sent
  // from the delayed-ACK timer, where no packet is in hand).
  std::uint32_t peer_addr_ = 0;
  std::uint16_t peer_port_ = 0;
  std::uint64_t flow_ = 0;

  // Delayed-ACK state.
  std::uint32_t unacked_segments_ = 0;
  bool pending_ece_ = false;
  sim::EventId delack_timer_ = sim::kInvalidEvent;
};

}  // namespace tcn::transport
