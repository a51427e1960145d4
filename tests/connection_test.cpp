// Tests for persistent connections: multi-message streams on one TcpSender,
// per-message DSCP/PIAS tagging, FCT semantics with queueing, window restart
// after idle, and the ConnectionPool's idle-else-new policy.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/fifo_scheduler.hpp"
#include "net/host.hpp"
#include "net/marker.hpp"
#include "net/switch.hpp"
#include "pias/pias.hpp"
#include "sim/simulator.hpp"
#include "transport/connection_pool.hpp"
#include "transport/flow.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/tcp_sink.hpp"

namespace tcn::transport {
namespace {

/// Two hosts through a single-queue 1G switch; host NICs 10x faster so the
/// switch port is the bottleneck.
struct Rig {
  Rig() : sw(sim, "sw") {
    net::PortConfig nic;
    nic.rate_bps = 10'000'000'000ULL;
    nic.prop_delay = sim::kMicrosecond;
    a = std::make_unique<net::Host>(sim, "a", 1, nic,
                                    10 * sim::kMicrosecond);
    b = std::make_unique<net::Host>(sim, "b", 2, nic,
                                    10 * sim::kMicrosecond);
    net::PortConfig port;
    port.rate_bps = 1'000'000'000;
    port.prop_delay = sim::kMicrosecond;
    sw.add_port(port, std::make_unique<net::FifoScheduler>(),
                std::make_unique<net::NullMarker>());
    sw.add_port(port, std::make_unique<net::FifoScheduler>(),
                std::make_unique<net::NullMarker>());
    sw.connect(0, a.get(), 0);
    sw.connect(1, b.get(), 0);
    a->connect(&sw, 0);
    b->connect(&sw, 1);
    sw.add_route(1, {0});
    sw.add_route(2, {1});
  }

  /// Wire up a raw connection a->b and return the sender.
  std::unique_ptr<TcpSender> connect(TcpConfig cfg = {}) {
    const auto sport = a->allocate_port();
    const auto dport = b->allocate_port();
    sink = std::make_unique<TcpSink>(*b, dport, 0);
    return std::make_unique<TcpSender>(*a, 2, sport, dport, 1, cfg,
                                       nullptr, 0);
  }

  sim::Simulator sim;
  net::Switch sw;
  std::unique_ptr<net::Host> a, b;
  std::unique_ptr<TcpSink> sink;
};

TEST(MessageStream, BackToBackMessagesCompleteInOrder) {
  Rig rig;
  auto sender = rig.connect();
  std::vector<int> done;
  for (int i = 0; i < 3; ++i) {
    TcpSender::MessageSpec m;
    m.size = 100'000;
    m.on_complete = [&done, i](sim::Time, std::uint32_t) {
      done.push_back(i);
    };
    sender->enqueue_message(std::move(m));
  }
  rig.sim.run();
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(sender->completed());
  EXPECT_EQ(rig.sink->bytes_delivered(), 300'000u);
}

TEST(MessageStream, QueuedMessageFctIncludesWait) {
  Rig rig;
  auto sender = rig.connect();
  sim::Time fct_first = 0, fct_second = 0;
  TcpSender::MessageSpec big;
  big.size = 5'000'000;  // ~41ms at 1G
  big.on_complete = [&](sim::Time f, std::uint32_t) { fct_first = f; };
  sender->enqueue_message(std::move(big));
  TcpSender::MessageSpec small;
  small.size = 10'000;
  small.on_complete = [&](sim::Time f, std::uint32_t) { fct_second = f; };
  sender->enqueue_message(std::move(small));  // same connection: must wait
  rig.sim.run();
  EXPECT_GT(fct_first, 35 * sim::kMillisecond);
  // The small message was enqueued at t=0 and only finishes after the big
  // one: its FCT is nearly the big one's.
  EXPECT_GT(fct_second, fct_first);
}

TEST(MessageStream, PerMessageDscpTagging) {
  Rig rig;
  TcpConfig cfg;
  auto sender = rig.connect(cfg);
  // Message 1 tagged dscp 3, message 2 PIAS-style: first 50KB dscp 0, rest 5.
  TcpSender::MessageSpec m1;
  m1.size = 20'000;
  m1.dscp = constant_dscp(3);
  sender->enqueue_message(std::move(m1));
  TcpSender::MessageSpec m2;
  m2.size = 120'000;
  m2.dscp = pias::two_priority(0, 5, 50'000);
  sender->enqueue_message(std::move(m2));
  rig.sim.run();
  EXPECT_TRUE(sender->completed());
  // The sink saw all bytes; DSCP correctness is asserted at the unit level
  // (dscp functions) and via the switch classifier tests; here we verify the
  // stream survives mixed tagging.
  EXPECT_EQ(rig.sink->bytes_delivered(), 140'000u);
}

TEST(MessageStream, WindowRestartAfterIdle) {
  Rig rig;
  TcpConfig cfg;
  cfg.init_cwnd_pkts = 10;
  cfg.rto_min = 10 * sim::kMillisecond;
  auto sender = rig.connect(cfg);
  TcpSender::MessageSpec m1;
  m1.size = 3'000'000;  // grows cwnd well past the initial window
  sender->enqueue_message(std::move(m1));
  rig.sim.run();
  const double grown = sender->cwnd_bytes();
  EXPECT_GT(grown, 20.0 * 1460);

  // Enqueue after a long idle: cwnd must restart at the initial window.
  rig.sim.schedule_in(500 * sim::kMillisecond, [&] {
    TcpSender::MessageSpec m2;
    m2.size = 1'460;
    sender->enqueue_message(std::move(m2));
    EXPECT_LE(sender->cwnd_bytes(), 10.0 * 1460 + 1);
  });
  rig.sim.run();
  EXPECT_TRUE(sender->completed());
}

TEST(MessageStream, NoRestartWhenBusy) {
  Rig rig;
  TcpConfig cfg;
  cfg.init_cwnd_pkts = 4;
  auto sender = rig.connect(cfg);
  TcpSender::MessageSpec m1;
  m1.size = 3'000'000;
  sender->enqueue_message(std::move(m1));
  // Enqueue a second message mid-transfer: window must not reset.
  rig.sim.schedule_in(5 * sim::kMillisecond, [&] {
    const double before = sender->cwnd_bytes();
    TcpSender::MessageSpec m2;
    m2.size = 100'000;
    sender->enqueue_message(std::move(m2));
    EXPECT_DOUBLE_EQ(sender->cwnd_bytes(), before);
  });
  rig.sim.run();
  EXPECT_TRUE(sender->completed());
}

TEST(MessageStream, RejectsZeroSize) {
  Rig rig;
  auto sender = rig.connect();
  EXPECT_THROW(sender->enqueue_message({}), std::invalid_argument);
}

TEST(ConnectionPool, ReusesIdleConnection) {
  Rig rig;
  ConnectionPool pool;
  FlowSpec spec;
  spec.size = 10'000;
  pool.submit(*rig.a, *rig.b, spec);
  rig.sim.run();  // message completes; connection now idle
  pool.submit(*rig.a, *rig.b, spec);
  rig.sim.run();
  EXPECT_EQ(pool.connections_created(), 1u);
  EXPECT_EQ(pool.results().size(), 2u);
}

TEST(ConnectionPool, OpensNewConnectionWhenBusy) {
  Rig rig;
  ConnectionPool pool;
  FlowSpec big;
  big.size = 5'000'000;
  FlowSpec small;
  small.size = 10'000;
  pool.submit(*rig.a, *rig.b, big);
  pool.submit(*rig.a, *rig.b, small);  // first is busy: new connection
  rig.sim.run();
  EXPECT_EQ(pool.connections_created(), 2u);
  // The small message did not wait behind the big one.
  ASSERT_EQ(pool.results().size(), 2u);
  const auto& first_done = pool.results()[0];
  EXPECT_EQ(first_done.size, 10'000u);
  EXPECT_LT(first_done.fct, 5 * sim::kMillisecond);
}

TEST(ConnectionPool, SeparatePoolsPerHostPair) {
  // Flows from two different sources never share a connection.
  sim::Simulator sim;
  net::Switch sw(sim, "sw");
  net::PortConfig nic;
  nic.rate_bps = 1'000'000'000;
  net::Host a(sim, "a", 1, nic), b(sim, "b", 2, nic), c(sim, "c", 3, nic);
  net::PortConfig port;
  port.rate_bps = 1'000'000'000;
  for (int i = 0; i < 3; ++i) {
    sw.add_port(port, std::make_unique<net::FifoScheduler>(),
                std::make_unique<net::NullMarker>());
  }
  sw.connect(0, &a, 0);
  sw.connect(1, &b, 0);
  sw.connect(2, &c, 0);
  a.connect(&sw, 0);
  b.connect(&sw, 1);
  c.connect(&sw, 2);
  sw.add_route(1, {0});
  sw.add_route(2, {1});
  sw.add_route(3, {2});

  ConnectionPool pool;
  FlowSpec spec;
  spec.size = 5'000;
  pool.submit(a, c, spec);
  pool.submit(b, c, spec);
  sim.run();
  EXPECT_EQ(pool.connections_created(), 2u);
  EXPECT_EQ(pool.results().size(), 2u);
}

TEST(ConnectionPool, CompletionCallbackCarriesMetadata) {
  Rig rig;
  std::vector<FlowResult> seen;
  ConnectionPool pool([&](const FlowResult& r) { seen.push_back(r); });
  FlowSpec spec;
  spec.size = 42'000;
  spec.service = 3;
  pool.submit(*rig.a, *rig.b, spec);
  rig.sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].size, 42'000u);
  EXPECT_EQ(seen[0].service, 3u);
  EXPECT_GT(seen[0].fct, 0);
  EXPECT_EQ(seen[0].timeouts, 0u);
}

}  // namespace
}  // namespace tcn::transport
