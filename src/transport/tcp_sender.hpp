// TCP sender: a byte-stream connection carrying one or more messages
// (flows), with ECN-based congestion control.
//
// The paper's testbed application multiplexes flows (messages) over
// persistent TCP connections (Sec. 6.1.2); this sender models exactly that:
// messages are enqueued onto the stream, each with its own per-offset DSCP
// function (PIAS tags offsets within the *message*) and completion callback.
// A single-message connection is the classic ns-2 "FTP over TCP" flow model
// used by FlowManager and the open-loop TrafficEngine.
//
// Implemented machinery:
//   - slow start / congestion avoidance (byte-counting), with Linux-style
//     window restart after idle (cwnd back to the initial window, ssthresh
//     retained) so warm connections do not blast converged windows
//   - per-packet accurate ECN echo processing; at most one window reduction
//     per RTT (ECN*: cwnd/2; DCTCP: alpha-scaled cut, g = 1/16)
//   - NewReno-style fast retransmit/recovery on 3 dupacks
//   - retransmission timeout with Jacobson RTT estimation, RTOmin clamp and
//     exponential backoff; timeout counts are attributed to messages (the
//     paper reports TCP timeouts to explain tail FCTs)
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/host.hpp"
#include "obs/metrics.hpp"
#include "sim/fifo.hpp"
#include "transport/tcp.hpp"

namespace tcn::transport {

class TcpSender {
 public:
  /// `on_complete(fct_ns, timeouts)` fires when the message's last byte is
  /// cumulatively acked; fct includes any wait behind earlier messages on
  /// the same connection.
  using MessageCb = std::function<void(sim::Time fct, std::uint32_t timeouts)>;

  struct MessageSpec {
    std::uint64_t size = 0;
    /// DSCP as a function of the byte offset *within this message*;
    /// falls back to the connection default when empty.
    DscpFn dscp;
    MessageCb on_complete;
  };

  TcpSender(net::Host& host, std::uint32_t dst, std::uint16_t sport,
            std::uint16_t dport, std::uint64_t flow_id, TcpConfig cfg,
            DscpFn data_dscp, std::uint8_t ack_dscp);
  ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Append a message to the stream. The first message opens the
  /// congestion window; later messages reuse it (with restart-after-idle if
  /// the connection sat quiet longer than the RTO).
  void enqueue_message(MessageSpec msg);

  [[nodiscard]] bool completed() const noexcept {
    return started_ && pending_messages() == 0;
  }
  [[nodiscard]] std::size_t pending_messages() const noexcept {
    return messages_.size();
  }
  [[nodiscard]] std::uint32_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] double cwnd_bytes() const noexcept { return cwnd_; }
  [[nodiscard]] double dctcp_alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return stream_end_; }
  [[nodiscard]] sim::Time start_time() const noexcept { return start_time_; }
  [[nodiscard]] std::uint64_t bytes_acked() const noexcept { return snd_una_; }

 private:
  struct Message {
    std::uint64_t begin;
    std::uint64_t end;
    DscpFn dscp;
    MessageCb on_complete;
    sim::Time arrival;
    std::uint32_t timeouts_before;
  };

  void on_ack(net::PacketPtr ack);
  void send_available();
  void send_segment(std::uint64_t seq, bool is_retransmit);
  void enter_fast_recovery();
  void on_rto();
  void arm_timer();
  void disarm_timer();
  void ensure_timer_event();
  void on_timer_event();
  void complete_messages();
  void ecn_reduce();
  void update_alpha_window(std::uint64_t newly_acked, bool ece);
  void merge_sack(const net::Packet& ack);
  [[nodiscard]] std::uint64_t next_unsacked(std::uint64_t from) const;
  void retransmit_hole();
  [[nodiscard]] std::uint32_t seg_len(std::uint64_t seq) const;
  [[nodiscard]] std::uint8_t dscp_for(std::uint64_t seq) const;

  net::Host& host_;
  sim::Simulator& sim_;
  std::uint32_t dst_;
  std::uint16_t sport_;
  std::uint16_t dport_;
  std::uint64_t flow_id_;
  TcpConfig cfg_;
  DscpFn default_dscp_;
  std::uint8_t ack_dscp_;

  sim::Fifo<Message> messages_;   // pending (not fully acked)
  std::uint64_t stream_end_ = 0;  // total bytes ever enqueued
  sim::Time start_time_ = 0;
  bool started_ = false;
  sim::Time last_activity_ = 0;

  // Window state (bytes).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  double cwnd_ = 0.0;
  double ssthresh_ = 0.0;

  // ECN reaction state: at most one reduction per window.
  std::uint64_t cwr_seq_ = 0;
  bool cwr_armed_ = false;

  // DCTCP alpha estimator.
  double alpha_ = 1.0;
  std::uint64_t alpha_seq_ = 0;
  std::uint64_t win_acked_ = 0;
  std::uint64_t win_marked_ = 0;

  // Loss recovery.
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;
  // SACK scoreboard: disjoint [begin, end) blocks above snd_una known to
  // have reached the receiver; rtx cursor avoids re-retransmitting the same
  // hole within one recovery episode.
  std::map<std::uint64_t, std::uint64_t> sacked_;
  std::uint64_t rtx_high_ = 0;

  // RTT estimation / RTO.
  bool rtt_measuring_ = false;
  std::uint64_t rtt_seq_ = 0;
  sim::Time rtt_sent_at_ = 0;
  bool srtt_valid_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  sim::Time rto_;
  std::uint32_t backoff_ = 0;
  // Lazy retransmission timer: re-arming on every ACK only moves the
  // deadline; the single scheduled event chains itself forward. This keeps
  // the hot path free of event cancellations.
  sim::Time timer_deadline_ = -1;  // -1: disarmed
  sim::Time timer_event_at_ = -1;
  sim::EventId timer_event_ = sim::kInvalidEvent;
  std::uint32_t timeouts_ = 0;

  /// Aggregate transport counters ("tcp.*"), resolved once from the
  /// thread-local MetricsRegistry scope; null handles (metrics disabled)
  /// cost one branch per publish site.
  struct Metrics {
    obs::Counter* timeouts = nullptr;
    obs::Counter* fast_recoveries = nullptr;
    obs::Counter* ece_acks = nullptr;
    obs::Counter* cwnd_reductions = nullptr;
  };
  Metrics metrics_;
};

}  // namespace tcn::transport
