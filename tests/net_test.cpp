// Unit tests for the network substrate: packet model, queues, ports (timing,
// shared buffer, marking hooks), switch routing/ECMP, host demux.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "aqm/tcn.hpp"
#include "net/fifo_scheduler.hpp"
#include "net/host.hpp"
#include "sched/dwrr.hpp"
#include "net/marker.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tcn::net {
namespace {

using test::CaptureNode;
using test::make_test_packet;

TEST(Packet, UidsAreUnique) {
  auto a = make_packet();
  auto b = make_packet();
  EXPECT_NE(a->uid, b->uid);
}

TEST(Packet, EcnPredicates) {
  auto p = make_packet();
  p->ecn = Ecn::kNotEct;
  EXPECT_FALSE(p->ect());
  EXPECT_FALSE(p->ce());
  p->ecn = Ecn::kEct0;
  EXPECT_TRUE(p->ect());
  p->ecn = Ecn::kEct1;
  EXPECT_TRUE(p->ect());
  p->ecn = Ecn::kCe;
  EXPECT_TRUE(p->ce());
  EXPECT_FALSE(p->ect());
}

TEST(PacketQueue, FifoOrderAndByteAccounting) {
  PacketQueue q;
  EXPECT_TRUE(q.empty());
  q.push(make_test_packet(100, 0, 1), 10);
  q.push(make_test_packet(200, 0, 2), 20);
  EXPECT_EQ(q.bytes(), 300u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front()->flow, 1u);
  EXPECT_EQ(q.front()->enqueue_ts, 10);
  auto p = q.pop(50);
  EXPECT_EQ(p->flow, 1u);
  EXPECT_EQ(q.bytes(), 200u);
  q.pop(60);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);

  const QueueCounters& c = q.counters();
  EXPECT_EQ(c.enq_packets, 2u);
  EXPECT_EQ(c.enq_bytes, 300u);
  EXPECT_EQ(c.tx_packets, 2u);
  EXPECT_EQ(c.tx_bytes, 300u);
  EXPECT_EQ(c.sojourn_ns, 40u + 40u);
}

TEST(PacketQueue, SojournClampsAtZero) {
  PacketQueue q;
  q.push(make_test_packet(100), 500);
  q.pop(400);  // a clock behind the stamp adds nothing
  EXPECT_EQ(q.counters().sojourn_ns, 0u);
}

class PortTest : public ::testing::Test {
 protected:
  std::unique_ptr<Port> make_port(PortConfig cfg,
                                  std::unique_ptr<Marker> marker = nullptr) {
    if (!marker) marker = std::make_unique<NullMarker>();
    auto port = std::make_unique<Port>(sim_, "p", cfg,
                                       std::make_unique<FifoScheduler>(),
                                       std::move(marker));
    port->connect(&peer_, 7);
    return port;
  }

  sim::Simulator sim_;
  CaptureNode peer_;
};

TEST_F(PortTest, SerializationTiming) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.prop_delay = 5 * sim::kMicrosecond;
  auto port = make_port(cfg);
  port->enqueue(make_test_packet(1500), 0);
  sim_.run();
  ASSERT_EQ(peer_.packets.size(), 1u);
  // 12us serialization + 5us propagation.
  EXPECT_EQ(sim_.now(), 17 * sim::kMicrosecond);
  EXPECT_EQ(peer_.ingresses[0], 7u);
}

TEST_F(PortTest, BackToBackPacketsSerialize) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  auto port = make_port(cfg);
  port->enqueue(make_test_packet(1500, 0, 1), 0);
  port->enqueue(make_test_packet(1500, 0, 2), 0);
  sim_.run();
  ASSERT_EQ(peer_.packets.size(), 2u);
  EXPECT_EQ(sim_.now(), 24 * sim::kMicrosecond);
  EXPECT_EQ(peer_.packets[0]->flow, 1u);
  EXPECT_EQ(peer_.packets[1]->flow, 2u);
}

TEST_F(PortTest, RateLimitFractionSlowsDrain) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.rate_limit_fraction = 0.5;
  auto port = make_port(cfg);
  EXPECT_EQ(port->effective_rate_bps(), 500'000'000u);
  port->enqueue(make_test_packet(1500), 0);
  sim_.run();
  EXPECT_EQ(sim_.now(), 24 * sim::kMicrosecond);
}

TEST_F(PortTest, SharedBufferTailDrop) {
  PortConfig cfg;
  cfg.rate_bps = 1'000;  // effectively frozen link
  cfg.num_queues = 2;
  cfg.buffer_bytes = 3'000;
  auto port = make_port(cfg);
  // The first packet goes straight into service (leaves the buffer).
  port->enqueue(make_test_packet(1500), 0);
  port->enqueue(make_test_packet(1500), 1);
  port->enqueue(make_test_packet(1500), 0);  // buffer now exactly full
  EXPECT_EQ(port->total_bytes(), 3'000u);
  port->enqueue(make_test_packet(1500), 0);  // over: dropped
  EXPECT_EQ(port->counters().drops, 1u);
  EXPECT_EQ(port->counters().drop_bytes, 1500u);
  EXPECT_EQ(port->counters().enq_packets, 3u);
  EXPECT_EQ(port->total_bytes(), 3'000u);
}

TEST_F(PortTest, SharedBufferIsFirstInFirstServe) {
  // A small packet still fits after a big one was dropped -- admission is
  // purely by arrival order and remaining space, not per-queue quotas.
  PortConfig cfg;
  cfg.rate_bps = 1'000;
  cfg.num_queues = 2;
  cfg.buffer_bytes = 2'000;
  auto port = make_port(cfg);
  port->enqueue(make_test_packet(1800), 0);  // in service
  port->enqueue(make_test_packet(1800), 0);  // buffered
  port->enqueue(make_test_packet(1800), 1);  // dropped (would exceed)
  EXPECT_EQ(port->counters().drops, 1u);
  EXPECT_EQ(port->queue_bytes(1), 0u);
  port->enqueue(make_test_packet(150), 1);  // fits in the remaining 200B
  EXPECT_EQ(port->counters().drops, 1u);
  EXPECT_EQ(port->queue_bytes(1), 150u);
}

/// Marker that marks everything at enqueue.
class AlwaysMark final : public Marker {
 public:
  bool on_enqueue(const MarkContext&, const Packet&) override { return true; }
  [[nodiscard]] std::string_view name() const override { return "always"; }
};

TEST_F(PortTest, MarkOnlyAppliesToEctPackets) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  auto port = make_port(cfg, std::make_unique<AlwaysMark>());
  port->enqueue(make_test_packet(100, 0, 1, Ecn::kEct0), 0);
  port->enqueue(make_test_packet(100, 0, 2, Ecn::kNotEct), 0);
  sim_.run();
  ASSERT_EQ(peer_.packets.size(), 2u);
  EXPECT_TRUE(peer_.packets[0]->ce());
  EXPECT_FALSE(peer_.packets[1]->ce());
  EXPECT_EQ(port->counters().marks, 1u);
}

/// Marker that records the sojourn implied by enqueue_ts at dequeue.
class SojournProbe final : public Marker {
 public:
  bool on_dequeue(const MarkContext& ctx, const Packet& p) override {
    sojourns.push_back(ctx.now - p.enqueue_ts);
    return false;
  }
  [[nodiscard]] std::string_view name() const override { return "probe"; }
  std::vector<sim::Time> sojourns;
};

TEST_F(PortTest, EnqueueTimestampGivesSojourn) {
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;  // 12us per 1500B
  auto probe = std::make_unique<SojournProbe>();
  auto* probe_raw = probe.get();
  auto port = make_port(cfg, std::move(probe));
  port->enqueue(make_test_packet(1500, 0, 1), 0);
  port->enqueue(make_test_packet(1500, 0, 2), 0);
  sim_.run();
  ASSERT_EQ(probe_raw->sojourns.size(), 2u);
  EXPECT_EQ(probe_raw->sojourns[0], 0);                      // served at once
  EXPECT_EQ(probe_raw->sojourns[1], 12 * sim::kMicrosecond); // waited 1 pkt
}

/// Forwards every call to a wrapped scheduler. Its class is not a
/// SchedulerVariant alternative, so a port holding one dispatches virtually.
class ForwardingScheduler final : public Scheduler {
 public:
  explicit ForwardingScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}
  void bind(const std::vector<PacketQueue>* queues,
            std::uint64_t link_rate_bps) override {
    inner_->bind(queues, link_rate_bps);
  }
  bool admit(std::size_t q, const Packet& p, sim::Time now,
             std::uint64_t port_bytes, std::uint64_t buffer_limit) override {
    return inner_->admit(q, p, now, port_bytes, buffer_limit);
  }
  void on_enqueue(std::size_t q, const Packet& p, sim::Time now) override {
    inner_->on_enqueue(q, p, now);
  }
  std::size_t select(sim::Time now) override { return inner_->select(now); }
  void on_dequeue(std::size_t q, const Packet& p, sim::Time now) override {
    inner_->on_dequeue(q, p, now);
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

/// Forwards every call to a wrapped marker; likewise resolves to Marker*.
class ForwardingMarker final : public Marker {
 public:
  explicit ForwardingMarker(std::unique_ptr<Marker> inner)
      : inner_(std::move(inner)) {}
  bool on_enqueue(const MarkContext& ctx, const Packet& p) override {
    return inner_->on_enqueue(ctx, p);
  }
  bool on_dequeue(const MarkContext& ctx, const Packet& p) override {
    return inner_->on_dequeue(ctx, p);
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  std::unique_ptr<Marker> inner_;
};

// Static dispatch (net/dispatch.hpp) must be a pure call-mechanism change:
// identical traffic through a port holding the concrete zoo types and one
// holding forwarding decorators (which Port cannot resolve, so it takes the
// virtual path) must produce identical counters, deliveries and marks. The
// virtual path is what every out-of-tree scheduler or marker rides.
TEST(PortDispatchTest, StaticAndVirtualDispatchAreEquivalent) {
  struct Run {
    Port::Counters counters;
    std::size_t delivered = 0;
    std::size_t ce_marked = 0;
  };
  const auto drive = [](bool wrap) {
    sim::Simulator sim;
    CaptureNode peer;
    PortConfig cfg;
    cfg.rate_bps = 1'000'000'000;
    cfg.num_queues = 2;
    cfg.buffer_bytes = 20'000;
    std::unique_ptr<Scheduler> sched = std::make_unique<sched::DwrrScheduler>(
        std::vector<std::uint64_t>{1500, 1500});
    std::unique_ptr<Marker> marker =
        std::make_unique<aqm::TcnMarker>(20 * sim::kMicrosecond);
    if (wrap) {
      sched = std::make_unique<ForwardingScheduler>(std::move(sched));
      marker = std::make_unique<ForwardingMarker>(std::move(marker));
    }
    Port port(sim, "p", cfg, std::move(sched), std::move(marker));
    port.connect(&peer, 0);
    // Two queues, enough depth that TCN's sojourn threshold trips, plus a
    // burst that overflows the shared buffer.
    for (int i = 0; i < 40; ++i) {
      port.enqueue(make_test_packet(1500, 0, 1 + (i % 2), Ecn::kEct0), i % 2);
    }
    sim.run();
    Run r;
    r.counters = port.counters();
    r.delivered = peer.packets.size();
    for (const auto& p : peer.packets) {
      if (p->ce()) ++r.ce_marked;
    }
    return r;
  };
  const Run st = drive(false);
  const Run vt = drive(true);
  EXPECT_EQ(st.delivered, vt.delivered);
  EXPECT_EQ(st.ce_marked, vt.ce_marked);
  EXPECT_GT(st.ce_marked, 0u);  // the marker really ran on both paths
  EXPECT_GT(st.counters.drops, 0u);
  EXPECT_TRUE(st.counters == vt.counters);
}

TEST(PortConfigTest, InvalidConfigsThrow) {
  sim::Simulator s;
  PortConfig cfg;
  cfg.num_queues = 0;
  EXPECT_THROW(Port(s, "p", cfg, std::make_unique<FifoScheduler>(),
                    std::make_unique<NullMarker>()),
               std::invalid_argument);
  cfg.num_queues = 1;
  cfg.rate_limit_fraction = 0.0;
  EXPECT_THROW(Port(s, "p", cfg, std::make_unique<FifoScheduler>(),
                    std::make_unique<NullMarker>()),
               std::invalid_argument);
}

TEST(SwitchTest, RoutesByDestination) {
  sim::Simulator s;
  Switch sw(s, "sw");
  CaptureNode a, b;
  PortConfig cfg;
  cfg.rate_bps = 1'000'000'000;
  const auto pa = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                              std::make_unique<NullMarker>());
  const auto pb = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                              std::make_unique<NullMarker>());
  sw.connect(pa, &a, 0);
  sw.connect(pb, &b, 0);
  sw.add_route(1, {pa});
  sw.add_route(2, {pb});

  auto p1 = make_test_packet(100);
  p1->dst = 1;
  auto p2 = make_test_packet(100);
  p2->dst = 2;
  sw.receive(std::move(p1), 0);
  sw.receive(std::move(p2), 0);
  s.run();
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
}

TEST(SwitchTest, UnroutedPacketsAreCountedAndDropped) {
  sim::Simulator s;
  Switch sw(s, "sw");
  auto p = make_test_packet(100);
  p->dst = 99;
  sw.receive(std::move(p), 0);
  EXPECT_EQ(sw.unrouted(), 1u);
}

TEST(SwitchTest, DscpClassifierClampsToQueueCount) {
  // Records the queue each enqueued packet lands in, keyed by its DSCP.
  struct EnqueueLog final : PortObserver {
    std::vector<std::pair<std::uint8_t, std::size_t>> seen;
    void on_event(const TraceRecord& r) override {
      if (r.event == TraceEvent::kEnqueue) seen.emplace_back(r.dscp, r.queue);
    }
  };
  sim::Simulator s;
  Switch sw(s, "sw");
  CaptureNode sink;
  PortConfig cfg;
  cfg.num_queues = 4;
  const auto port = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                                std::make_unique<NullMarker>());
  sw.connect(port, &sink, 0);
  sw.add_route(1, {port});
  EnqueueLog log;
  sw.port(port).set_observer(&log);

  for (const std::uint8_t dscp : {0, 3, 6}) {
    auto p = make_test_packet(100, dscp);
    p->dst = 1;
    sw.receive(std::move(p), 0);
  }
  s.run();
  const std::vector<std::pair<std::uint8_t, std::size_t>> want = {
      {0, 0}, {3, 3}, {6, 3}};  // dscp 6 clamps to the last queue
  EXPECT_EQ(log.seen, want);
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST(SwitchTest, AddRouteRejectsUnboundedAddressAndMissingPort) {
  sim::Simulator s;
  Switch sw(s, "sw");
  PortConfig cfg;
  const auto port = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                                std::make_unique<NullMarker>());
  EXPECT_THROW(sw.add_route(Switch::kMaxAddress, {port}),
               std::invalid_argument);
  EXPECT_THROW(sw.add_route(UINT32_MAX, {port}), std::invalid_argument);
  EXPECT_THROW(sw.add_route(1, {port + 1}), std::invalid_argument);
  sw.add_route(5, {port});
  // Below the table's end but never routed, and past its end.
  for (const std::uint32_t dst : {3u, 6u, 1000u}) {
    auto p = make_test_packet(100);
    p->dst = dst;
    sw.receive(std::move(p), 0);
  }
  EXPECT_EQ(sw.unrouted(), 3u);
}

TEST(SwitchTest, EcmpSpreadsFlowsButPinsEachFlow) {
  sim::Simulator s;
  Switch sw(s, "sw");
  CaptureNode nodes[4];
  PortConfig cfg;
  cfg.rate_bps = 10'000'000'000ULL;
  std::vector<std::size_t> group;
  for (auto& n : nodes) {
    const auto p = sw.add_port(cfg, std::make_unique<FifoScheduler>(),
                               std::make_unique<NullMarker>());
    sw.connect(p, &n, 0);
    group.push_back(p);
  }
  sw.add_route(5, group);

  // 64 flows, 3 packets each: each flow must stay on one port, and the flows
  // must not all hash to the same port.
  for (std::uint16_t f = 0; f < 64; ++f) {
    for (int k = 0; k < 3; ++k) {
      auto p = make_test_packet(100, 0, f);
      p->dst = 5;
      p->src = 1;
      p->sport = 1000 + f;
      p->dport = 80;
      sw.receive(std::move(p), 0);
    }
  }
  s.run();
  std::size_t used = 0;
  std::size_t total = 0;
  for (auto& n : nodes) {
    if (!n.packets.empty()) ++used;
    total += n.packets.size();
    // All packets of one flow on one port: check per-flow counts are 0 or 3.
    std::map<std::uint64_t, int> per_flow;
    for (auto& p : n.packets) ++per_flow[p->flow];
    for (const auto& [flow, count] : per_flow) EXPECT_EQ(count, 3);
  }
  EXPECT_EQ(total, 64u * 3);
  EXPECT_GE(used, 3u);  // 64 flows over 4 ports: all-in-one is ~impossible
}

TEST(HostTest, DemuxesByDport) {
  sim::Simulator s;
  PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  Host h(s, "h", 1, nic, /*stack_delay=*/0);
  std::vector<std::uint64_t> got_a, got_b;
  h.bind(10, [&](PacketPtr p) { got_a.push_back(p->flow); });
  h.bind(20, [&](PacketPtr p) { got_b.push_back(p->flow); });

  auto p1 = make_test_packet(100, 0, 1);
  p1->dport = 10;
  auto p2 = make_test_packet(100, 0, 2);
  p2->dport = 20;
  auto p3 = make_test_packet(100, 0, 3);
  p3->dport = 30;  // unbound: silently dropped
  h.receive(std::move(p1), 0);
  h.receive(std::move(p2), 0);
  h.receive(std::move(p3), 0);
  s.run();
  EXPECT_EQ(got_a, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(got_b, (std::vector<std::uint64_t>{2}));
}

TEST(HostTest, StackDelayAppliedBothWays) {
  sim::Simulator s;
  PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  Host h(s, "h", 1, nic, /*stack_delay=*/30 * sim::kMicrosecond);
  CaptureNode peer;
  h.connect(&peer, 0);

  auto out = make_test_packet(1000);
  out->dst = 2;
  h.send(std::move(out));
  s.run();
  ASSERT_EQ(peer.packets.size(), 1u);
  // 30us stack + 8us serialization.
  EXPECT_EQ(s.now(), 38 * sim::kMicrosecond);

  sim::Time delivered_at = -1;
  h.bind(10, [&](PacketPtr) { delivered_at = s.now(); });
  auto in = make_test_packet(100);
  in->dport = 10;
  h.receive(std::move(in), 0);
  s.run();
  EXPECT_EQ(delivered_at, 38 * sim::kMicrosecond + 30 * sim::kMicrosecond);
}

TEST(HostTest, EphemeralPortsNeverRepeat) {
  sim::Simulator s;
  PortConfig nic;
  Host h(s, "h7", 1, nic);
  std::set<std::uint16_t> seen;
  for (int i = 0; i < 65536 - 1024; ++i) {
    const std::uint16_t port = h.allocate_port();
    ASSERT_GE(port, 1024u);
    ASSERT_TRUE(seen.insert(port).second) << "port " << port << " repeated";
  }
  // All 64,512 are out: the next request fails, naming the host, instead of
  // wrapping to 0 and then re-issuing ports live flows hold.
  try {
    h.allocate_port();
    FAIL() << "port 65,513 was handed out";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("h7"), std::string::npos) << e.what();
  }
}

TEST(HostTest, BindingABoundPortThrows) {
  sim::Simulator s;
  PortConfig nic;
  Host h(s, "h7", 1, nic);
  int first = 0;
  h.bind(10, [&](PacketPtr) { ++first; });
  try {
    h.bind(10, [](PacketPtr) {});
    FAIL() << "port 10 was bound twice";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("h7"), std::string::npos) << e.what();
  }
  // The live handler still gets the port's packets; after unbind the port
  // can be bound again.
  auto p = make_test_packet(100);
  p->dport = 10;
  h.receive(std::move(p), 0);
  EXPECT_EQ(first, 1);
  h.unbind(10);
  h.bind(10, [](PacketPtr) {});
}

}  // namespace
}  // namespace tcn::net
