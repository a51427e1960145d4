#include "transport/tcp_sender.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tcn::transport {

TcpSender::TcpSender(net::Host& host, std::uint32_t dst, std::uint16_t sport,
                     std::uint16_t dport, std::uint64_t flow_id, TcpConfig cfg,
                     DscpFn data_dscp, std::uint8_t ack_dscp)
    : host_(host),
      sim_(host.simulator()),
      dst_(dst),
      sport_(sport),
      dport_(dport),
      flow_id_(flow_id),
      cfg_(cfg),
      default_dscp_(std::move(data_dscp)),
      ack_dscp_(ack_dscp),
      rto_(cfg.rto_init) {
  if (!default_dscp_) default_dscp_ = constant_dscp(0);
  host_.bind(sport_, [this](net::PacketPtr p) { on_ack(std::move(p)); });
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::current()) {
    metrics_.timeouts = &reg->counter("tcp.timeouts");
    metrics_.fast_recoveries = &reg->counter("tcp.fast_recoveries");
    metrics_.ece_acks = &reg->counter("tcp.ece_acks");
    metrics_.cwnd_reductions = &reg->counter("tcp.cwnd_reductions");
  }
}

TcpSender::~TcpSender() {
  if (timer_event_ != sim::kInvalidEvent) sim_.cancel(timer_event_);
  host_.unbind(sport_);
}

void TcpSender::enqueue_message(MessageSpec msg) {
  if (msg.size == 0) {
    throw std::invalid_argument("TcpSender: zero-size message");
  }
  if (!started_) {
    started_ = true;
    start_time_ = sim_.now();
    cwnd_ = static_cast<double>(cfg_.init_cwnd_pkts) * cfg_.mss;
    ssthresh_ = static_cast<double>(cfg_.max_cwnd_bytes);
    last_activity_ = sim_.now();
  } else if (snd_nxt_ == snd_una_ && sim_.now() - last_activity_ > rto_) {
    // Window restart after idle (Linux tcp_slow_start_after_idle): slow
    // start again from the initial window but keep ssthresh, so the warm
    // connection ramps quickly yet cannot blast its old converged window.
    cwnd_ = std::min(
        cwnd_, static_cast<double>(cfg_.init_cwnd_pkts) * cfg_.mss);
    backoff_ = 0;
  }
  Message m;
  m.begin = stream_end_;
  m.end = stream_end_ + msg.size;
  m.dscp = std::move(msg.dscp);
  m.on_complete = std::move(msg.on_complete);
  m.arrival = sim_.now();
  m.timeouts_before = timeouts_;
  stream_end_ = m.end;
  messages_.push_back(std::move(m));
  send_available();
}

std::uint32_t TcpSender::seg_len(std::uint64_t seq) const {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(cfg_.mss, stream_end_ - seq));
}

std::uint8_t TcpSender::dscp_for(std::uint64_t seq) const {
  // Pending messages cover [snd_una_, stream_end_); every (re)transmitted
  // seq falls inside one of them. PIAS-style tagging is relative to the
  // message start.
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const Message& m = messages_[i];
    if (seq < m.end) {
      return m.dscp ? m.dscp(seq - m.begin) : default_dscp_(seq - m.begin);
    }
  }
  return default_dscp_(0);
}

void TcpSender::send_segment(std::uint64_t seq, bool is_retransmit) {
  auto p = net::make_packet();
  p->type = net::PacketType::kData;
  p->dst = dst_;
  p->sport = sport_;
  p->dport = dport_;
  p->flow = flow_id_;
  p->seq = seq;
  p->payload = seg_len(seq);
  p->size = p->payload + net::kHeaderBytes;
  p->ecn = net::Ecn::kEct0;
  p->dscp = dscp_for(seq);
  p->sent_ts = sim_.now();

  // Karn's rule: only time segments that are not retransmissions.
  if (!rtt_measuring_ && !is_retransmit) {
    rtt_measuring_ = true;
    rtt_seq_ = seq + p->payload;
    rtt_sent_at_ = sim_.now();
  }

  last_activity_ = sim_.now();
  host_.send(std::move(p));
  arm_timer();
}

void TcpSender::send_available() {
  const std::uint64_t wnd = static_cast<std::uint64_t>(
      std::min(cwnd_, static_cast<double>(cfg_.max_cwnd_bytes)));
  while (snd_nxt_ < stream_end_ &&
         snd_nxt_ + seg_len(snd_nxt_) <= snd_una_ + wnd) {
    const std::uint32_t len = seg_len(snd_nxt_);
    send_segment(snd_nxt_, false);
    snd_nxt_ += len;
  }
}

void TcpSender::update_alpha_window(std::uint64_t newly_acked, bool ece) {
  win_acked_ += newly_acked;
  if (ece) win_marked_ += newly_acked;
  if (snd_una_ > alpha_seq_) {
    // One observation window elapsed: fold the marked fraction into alpha.
    if (win_acked_ > 0) {
      const double frac = static_cast<double>(win_marked_) /
                          static_cast<double>(win_acked_);
      alpha_ = (1.0 - cfg_.dctcp_g) * alpha_ + cfg_.dctcp_g * frac;
    }
    win_acked_ = 0;
    win_marked_ = 0;
    alpha_seq_ = snd_nxt_;
  }
}

void TcpSender::ecn_reduce() {
  if (cwr_armed_ && snd_una_ <= cwr_seq_) return;  // once per window
  if (metrics_.cwnd_reductions != nullptr) metrics_.cwnd_reductions->inc();
  const double mss = cfg_.mss;
  if (cfg_.cc == CongestionControl::kDctcp) {
    cwnd_ = std::max(mss, cwnd_ * (1.0 - alpha_ / 2.0));
  } else {
    cwnd_ = std::max(mss, cwnd_ / 2.0);
  }
  ssthresh_ = cwnd_;
  cwr_seq_ = snd_nxt_;
  cwr_armed_ = true;
}

void TcpSender::merge_sack(const net::Packet& ack) {
  for (std::uint8_t i = 0; i < ack.sack_count; ++i) {
    auto [begin, end] = ack.sack[i];
    if (end <= snd_una_ || begin >= end) continue;
    begin = std::max(begin, snd_una_);
    // Merge with any overlapping/adjacent blocks.
    auto it = sacked_.lower_bound(begin);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= begin) it = prev;
    }
    while (it != sacked_.end() && it->first <= end) {
      begin = std::min(begin, it->first);
      end = std::max(end, it->second);
      it = sacked_.erase(it);
    }
    sacked_.emplace(begin, end);
  }
  // Prune below the cumulative ack.
  while (!sacked_.empty() && sacked_.begin()->second <= snd_una_) {
    sacked_.erase(sacked_.begin());
  }
  if (!sacked_.empty() && sacked_.begin()->first < snd_una_) {
    auto node = sacked_.extract(sacked_.begin());
    node.key() = snd_una_;
    sacked_.insert(std::move(node));
  }
}

std::uint64_t TcpSender::next_unsacked(std::uint64_t from) const {
  for (const auto& [begin, end] : sacked_) {
    if (from < begin) break;
    if (from < end) from = end;
  }
  return from;
}

void TcpSender::retransmit_hole() {
  // Lowest never-retransmitted hole this recovery (SACK-aware if enabled).
  std::uint64_t hole = std::max(snd_una_, rtx_high_);
  if (cfg_.sack) hole = next_unsacked(hole);
  if (hole >= snd_nxt_ || hole >= recover_) return;
  send_segment(hole, true);
  rtx_high_ = hole + seg_len(hole);
}

void TcpSender::on_ack(net::PacketPtr ack) {
  if (!started_) return;
  if (ack->type != net::PacketType::kAck) return;

  const std::uint64_t ackno = ack->ack;
  const bool ece = ack->ece;
  if (ece && metrics_.ece_acks != nullptr) metrics_.ece_acks->inc();

  if (ackno > snd_una_) {
    const std::uint64_t newly = ackno - snd_una_;
    snd_una_ = ackno;
    dupacks_ = 0;
    backoff_ = 0;
    last_activity_ = sim_.now();

    // RTT sample (only when the timed segment was cumulatively acked).
    if (rtt_measuring_ && snd_una_ >= rtt_seq_) {
      rtt_measuring_ = false;
      const double sample = static_cast<double>(sim_.now() - rtt_sent_at_);
      if (!srtt_valid_) {
        srtt_ = sample;
        rttvar_ = sample / 2.0;
        srtt_valid_ = true;
      } else {
        const double err = sample - srtt_;
        srtt_ += 0.125 * err;
        rttvar_ += 0.25 * (std::abs(err) - rttvar_);
      }
      const double rto = srtt_ + std::max(4.0 * rttvar_, 1.0);
      rto_ = std::clamp(static_cast<sim::Time>(rto), cfg_.rto_min,
                        cfg_.rto_max);
    }

    if (cfg_.cc == CongestionControl::kDctcp) {
      update_alpha_window(newly, ece);
    }
    if (ece) ecn_reduce();

    if (cfg_.sack) merge_sack(*ack);
    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        sacked_.clear();
        rtx_high_ = 0;
      } else {
        // Partial ACK: retransmit the next hole (SACK-aware), stay in
        // recovery.
        rtx_high_ = std::max(rtx_high_, snd_una_);
        retransmit_hole();
      }
    } else if (!ece) {
      // Window growth (suppressed in the RTT that saw a reduction).
      if (cwnd_ < ssthresh_) {
        cwnd_ += std::min<std::uint64_t>(newly, cfg_.mss);  // slow start
      } else {
        cwnd_ += static_cast<double>(cfg_.mss) * cfg_.mss / cwnd_;  // CA
      }
    }

    complete_messages();
    if (snd_una_ >= stream_end_) {
      disarm_timer();
      return;
    }
    arm_timer();
    send_available();
    return;
  }

  // Duplicate ACK.
  if (ackno == snd_una_ && snd_nxt_ > snd_una_) {
    if (cfg_.sack) merge_sack(*ack);
    if (ece) ecn_reduce();
    if (!in_recovery_) {
      ++dupacks_;
      if (dupacks_ >= cfg_.dupack_threshold) enter_fast_recovery();
    } else if (cfg_.sack) {
      // Each further dupack exposes more of the scoreboard: keep filling
      // holes instead of waiting one RTT per hole.
      retransmit_hole();
    }
  }
}

void TcpSender::enter_fast_recovery() {
  if (metrics_.fast_recoveries != nullptr) metrics_.fast_recoveries->inc();
  in_recovery_ = true;
  recover_ = snd_nxt_;
  const double mss = cfg_.mss;
  const double inflight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(inflight / 2.0, 2.0 * mss);
  cwnd_ = ssthresh_;
  dupacks_ = 0;
  rtx_high_ = snd_una_;
  retransmit_hole();
}

void TcpSender::on_rto() {
  if (snd_una_ >= stream_end_) return;
  ++timeouts_;
  if (metrics_.timeouts != nullptr) metrics_.timeouts->inc();
  const double mss = cfg_.mss;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * mss);
  cwnd_ = mss;
  snd_nxt_ = snd_una_;
  dupacks_ = 0;
  in_recovery_ = false;
  sacked_.clear();  // conservative: rebuild the scoreboard after an RTO
  rtx_high_ = 0;
  rtt_measuring_ = false;
  if (backoff_ < cfg_.max_rto_backoff) ++backoff_;
  send_available();
  arm_timer();
}

void TcpSender::arm_timer() {
  if (snd_una_ >= stream_end_) {
    timer_deadline_ = -1;
    return;
  }
  // Capped exponential backoff: at most 2^max_rto_backoff x RTO and never
  // beyond rto_max, so a blackholed sender keeps probing at a bounded pace.
  const std::uint32_t shift = std::min(backoff_, cfg_.max_rto_backoff);
  const sim::Time rto =
      shift >= 62 ? cfg_.rto_max
                  : std::min<sim::Time>(cfg_.rto_max, rto_ << shift);
  timer_deadline_ = sim_.now() + rto;
  ensure_timer_event();
}

void TcpSender::disarm_timer() { timer_deadline_ = -1; }

void TcpSender::ensure_timer_event() {
  if (timer_event_ != sim::kInvalidEvent) {
    if (timer_event_at_ <= timer_deadline_) return;  // chains forward
    sim_.cancel(timer_event_);  // rare: deadline moved earlier
  }
  timer_event_at_ = timer_deadline_;
  timer_event_ = sim_.schedule_at(timer_deadline_, [this]() {
    on_timer_event();
  });
}

void TcpSender::on_timer_event() {
  timer_event_ = sim::kInvalidEvent;
  if (timer_deadline_ < 0) return;  // disarmed meanwhile
  if (sim_.now() < timer_deadline_) {
    ensure_timer_event();  // deadline was pushed out by ACK progress
    return;
  }
  timer_deadline_ = -1;
  on_rto();
}

void TcpSender::complete_messages() {
  while (!messages_.empty() && snd_una_ >= messages_.front().end) {
    Message done = std::move(messages_.front());
    messages_.pop_front();
    if (done.on_complete) {
      done.on_complete(sim_.now() - done.arrival,
                       timeouts_ - done.timeouts_before);
    }
  }
}

}  // namespace tcn::transport
