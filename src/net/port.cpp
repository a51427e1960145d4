#include "net/port.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/timeseries.hpp"

namespace tcn::net {

Port::Port(sim::Simulator& sim, std::string name, PortConfig cfg,
           std::unique_ptr<Scheduler> sched, std::unique_ptr<Marker> marker)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      effective_rate_bps_(static_cast<std::uint64_t>(
          static_cast<double>(cfg.rate_bps) * cfg.rate_limit_fraction)),
      sched_(std::move(sched)),
      marker_(std::move(marker)),
      queues_(cfg.num_queues),
      buffer_limit_(cfg.buffer_bytes) {
  if (cfg.rate_bps == 0) {
    throw std::invalid_argument("Port: rate_bps must be > 0");
  }
  if (cfg.num_queues == 0) {
    throw std::invalid_argument("Port: num_queues must be >= 1");
  }
  if (cfg.prop_delay < 0) {
    throw std::invalid_argument("Port: prop_delay must be >= 0");
  }
  if (cfg.rate_limit_fraction <= 0.0 || cfg.rate_limit_fraction > 1.0) {
    throw std::invalid_argument("Port: rate_limit_fraction out of (0,1]");
  }
  if (!sched_ || !marker_) {
    throw std::invalid_argument("Port: scheduler and marker are required");
  }
  if (effective_rate_bps_ == 0) {
    // Would divide by zero computing serialization times.
    throw std::invalid_argument(
        "Port: rate_bps * rate_limit_fraction rounds to zero");
  }
  sched_->bind(&queues_, effective_rate_bps_);
  resolve_metrics();
  resolve_timeseries();
}

void Port::resolve_metrics() {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::current();
  if (reg == nullptr) return;
  const std::string base = "port." + name_ + ".";
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    const std::string qbase = base + "q" + std::to_string(q) + ".";
    const QueueCounters* c = &queues_[q].counters();
    reg->read_counter(qbase + "enq_packets", [c] { return c->enq_packets; });
    reg->read_counter(qbase + "deq_packets", [c] { return c->tx_packets; });
    reg->read_counter(qbase + "drop_packets", [c] { return c->drops; });
    metrics_.q_sojourn.push_back(&reg->histogram(qbase + "sojourn_ns"));
  }
  reg->read_counter(base + "drops.buffer", [this] { return counters().drops; });
  reg->read_counter(base + "drops.fault",
                    [this] { return counters().fault_drops; });
  reg->read_counter(base + "drops.sched",
                    [this] { return counters().sched_drops; });
  metrics_.marks_enqueue = &reg->counter(base + "marks.enqueue");
  metrics_.marks_dequeue = &reg->counter(base + "marks.dequeue");
  metrics_.mark_sojourn = &reg->histogram(base + "mark_sojourn_ns");
  metrics_.interdeq_gap = &reg->histogram(base + "interdeq_gap_ns");
}

void Port::resolve_timeseries() {
  obs::TimeSeries* ts = obs::TimeSeries::current();
  if (ts == nullptr) return;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    ts->add_channel(name_ + ".q" + std::to_string(q), queues_[q],
                    cfg_.buffer_bytes);
  }
}

Port::Counters Port::counters() const noexcept {
  Counters total;
  for (const PacketQueue& q : queues_) total += q.counters();
  return total;
}

void Port::emit(TraceEvent event, const Packet& p, std::size_t queue,
                sim::Time sojourn) {
  TraceRecord rec;
  rec.t = sim_.now();
  rec.event = event;
  rec.port = name_;
  rec.queue = queue;
  rec.flow = p.flow;
  rec.seq = p.seq;
  rec.size = p.size;
  rec.dscp = p.dscp;
  rec.queue_bytes = queues_[queue].bytes();
  rec.port_bytes = total_bytes_;
  rec.sojourn = sojourn;
  observer_->on_event(rec);
}

void Port::connect(Node* peer, std::size_t peer_ingress) {
  peer_ = peer;
  peer_ingress_ = peer_ingress;
}

void Port::fault_drop(const Packet& p, std::size_t queue) {
  QueueCounters& c = queues_[queue].counters();
  ++c.fault_drops;
  c.fault_drop_bytes += p.size;
  if (observer_ != nullptr) emit(TraceEvent::kFaultDrop, p, queue);
}

void Port::set_link_up(bool up) {
  if (link_up_ == up) return;
  link_up_ = up;
  // Whatever survived in the buffer resumes draining when the link heals.
  if (up) try_transmit();
}

void Port::enqueue(PacketPtr p, std::size_t queue) {
  if (queue >= queues_.size()) {
    throw std::invalid_argument("Port::enqueue(" + name_ + "): queue index " +
                                std::to_string(queue) + " out of range [0, " +
                                std::to_string(queues_.size()) + ")");
  }
  // A downed link blackholes new arrivals before buffer accounting.
  if (!link_up_) {
    fault_drop(*p, queue);
    return;
  }
  QueueCounters& c = queues_[queue].counters();
  // Shared-buffer admission: tail drop on the port total.
  if (total_bytes_ + p->size > buffer_limit_) {
    ++c.drops;
    c.drop_bytes += p->size;
    if (observer_ != nullptr) emit(TraceEvent::kDrop, *p, queue);
    return;  // packet destroyed
  }
  // Scheduler admission control (e.g. AIFO): a rejection here is a
  // *scheduling* decision, accounted apart from buffer and fault drops, and
  // invisible to the marker (the packet never enters a queue).
  if (!sched_->admit(queue, *p, sim_.now(), total_bytes_, buffer_limit_)) {
    ++c.sched_drops;
    c.sched_drop_bytes += p->size;
    if (observer_ != nullptr) emit(TraceEvent::kSchedDrop, *p, queue);
    return;  // packet destroyed
  }
  total_bytes_ += p->size;

  Packet& ref = *p;
  queues_[queue].push(std::move(p), sim_.now());
  sched_->on_enqueue(queue, ref, sim_.now());

  const MarkContext ctx{.now = sim_.now(),
                        .queue = queue,
                        .queue_bytes = queues_[queue].bytes(),
                        .port_bytes = total_bytes_,
                        .link_rate_bps = effective_rate_bps_};
  if (marker_->on_enqueue(ctx, ref) && ref.ect()) {
    ref.ecn = Ecn::kCe;
    ++c.marks;
    if (metrics_.marks_enqueue != nullptr) {
      metrics_.marks_enqueue->inc();
      metrics_.mark_sojourn->record(0);  // marked on arrival: no queueing yet
    }
    if (observer_ != nullptr) emit(TraceEvent::kMark, ref, queue);
  }
  if (observer_ != nullptr) emit(TraceEvent::kEnqueue, ref, queue);

  try_transmit();
}

void Port::try_transmit() {
  if (busy_ || !link_up_ || total_bytes_ == 0) return;

  const std::size_t q = sched_->select(sim_.now());
  assert(q < queues_.size() && !queues_[q].empty());

  PacketPtr p = queues_[q].pop(sim_.now());
  total_bytes_ -= p->size;
  sched_->on_dequeue(q, *p, sim_.now());

  const MarkContext ctx{.now = sim_.now(),
                        .queue = q,
                        .queue_bytes = queues_[q].bytes(),
                        .port_bytes = total_bytes_,
                        .link_rate_bps = effective_rate_bps_};
  const sim::Time sojourn = sim_.now() - p->enqueue_ts;
  if (marker_->on_dequeue(ctx, *p) && p->ect()) {
    p->ecn = Ecn::kCe;
    ++queues_[q].counters().marks;
    if (metrics_.marks_dequeue != nullptr) {
      metrics_.marks_dequeue->inc();
      metrics_.mark_sojourn->record(sojourn);
    }
    if (observer_ != nullptr) emit(TraceEvent::kMark, *p, q, sojourn);
  }
  if (metrics_.interdeq_gap != nullptr) {
    metrics_.q_sojourn[q]->record(sojourn);
    if (last_dequeue_ >= 0) {
      metrics_.interdeq_gap->record(sim_.now() - last_dequeue_);
    }
    last_dequeue_ = sim_.now();
  }
  if (observer_ != nullptr) emit(TraceEvent::kDequeue, *p, q, sojourn);

  const sim::Time tx = sim::transmission_time(p->size, effective_rate_bps_);
  busy_ = true;
  // Serialization finishes at now+tx; the packet then propagates for
  // prop_delay before hitting the peer. A link that goes down while the
  // packet is on the wire (or a loss model firing at the end of
  // serialization) blackholes it. The packet moves straight into the event's
  // inline capture -- no heap, and an event discarded unfired recycles it.
  sim_.schedule_in(tx, [this, q, pkt = std::move(p)]() mutable {
    busy_ = false;
    if (!link_up_ || (loss_ != nullptr && loss_->should_drop(*pkt, sim_.now()))) {
      fault_drop(*pkt, q);
    } else if (peer_ != nullptr) {
      sim_.schedule_in(cfg_.prop_delay,
                       [this, q, arriving = std::move(pkt)]() mutable {
        if (!link_up_) {
          fault_drop(*arriving, q);
          return;
        }
        peer_->receive(std::move(arriving), peer_ingress_);
      });
    }
    try_transmit();
  });
}

}  // namespace tcn::net
