// Fault-injection and invariant-checking tests: link outages (blackholing at
// enqueue, on the wire, and mid-propagation), Bernoulli and Gilbert-Elliott
// loss models, buffer squeezes, the --faults grammar, target resolution over
// built topologies, ECMP steering around dead links, TCP riding out loss and
// blackhole windows on its capped RTO backoff, and the full leaf-spine
// acceptance scenario with the InvariantChecker watching every port.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "net/fifo_scheduler.hpp"
#include "net/host.hpp"
#include "net/invariant.hpp"
#include "net/marker.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "topo/network.hpp"
#include "transport/flow.hpp"
#include "test_util.hpp"

namespace tcn::fault {
namespace {

using test::CaptureNode;
using test::make_test_packet;

// ---------------------------------------------------------------- glob match

TEST(GlobMatch, LiteralAndWildcards) {
  EXPECT_TRUE(glob_match("leaf0.p1", "leaf0.p1"));
  EXPECT_FALSE(glob_match("leaf0.p1", "leaf0.p2"));
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("leaf*", "leaf11.p3"));
  EXPECT_FALSE(glob_match("leaf*", "spine0.p1"));
  EXPECT_TRUE(glob_match("*.nic", "h7.nic"));
  EXPECT_FALSE(glob_match("*.nic", "leaf0.p1"));
  EXPECT_TRUE(glob_match("h?.nic", "h7.nic"));
  EXPECT_FALSE(glob_match("h?.nic", "h12.nic"));
}

TEST(GlobMatch, StarBacktracks) {
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
  EXPECT_TRUE(glob_match("a*b*c", "abbc"));  // first b is not the right one
  EXPECT_FALSE(glob_match("a*b*c", "aXXbYY"));
  EXPECT_TRUE(glob_match("**", "x"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

// ------------------------------------------------------------ spec grammar

TEST(ParseFaults, LinkDown) {
  const FaultPlan plan = parse_fault_specs("linkdown:leaf0-spine0:100:50");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::kLinkDown);
  EXPECT_EQ(plan[0].target, "leaf0-spine0");
  EXPECT_EQ(plan[0].start, 100 * sim::kMillisecond);
  EXPECT_EQ(plan[0].duration, 50 * sim::kMillisecond);
}

TEST(ParseFaults, LossDefaultsToWholeRun) {
  const FaultPlan plan = parse_fault_specs("loss:leaf*:0.01");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::kBernoulliLoss);
  EXPECT_DOUBLE_EQ(plan[0].rate, 0.01);
  EXPECT_EQ(plan[0].start, 0);
  EXPECT_EQ(plan[0].duration, 0);
}

TEST(ParseFaults, GelossVariants) {
  FaultPlan plan = parse_fault_specs("geloss:*:0.02");
  EXPECT_DOUBLE_EQ(plan[0].rate, 0.02);
  EXPECT_DOUBLE_EQ(plan[0].burst_pkts, 10.0);  // default burst

  plan = parse_fault_specs("geloss:*:0.02:25");
  EXPECT_DOUBLE_EQ(plan[0].burst_pkts, 25.0);

  plan = parse_fault_specs("geloss:*:0.02:25:1.5:3");
  EXPECT_EQ(plan[0].start, static_cast<sim::Time>(1.5 * sim::kMillisecond));
  EXPECT_EQ(plan[0].duration, 3 * sim::kMillisecond);
}

TEST(ParseFaults, SqueezeAndComposition) {
  const FaultPlan plan = parse_fault_specs(
      "squeeze:sw0.p1:30000:1:2;geloss:leaf*:0.01;linkdown:a-b:0:5");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].kind, FaultSpec::Kind::kBufferSqueeze);
  EXPECT_EQ(plan[0].buffer_bytes, 30'000u);
  EXPECT_EQ(plan[1].kind, FaultSpec::Kind::kGilbertElliott);
  EXPECT_EQ(plan[2].kind, FaultSpec::Kind::kLinkDown);
}

TEST(ParseFaults, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_specs(""), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("frobnicate:x:1:2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("linkdown:x:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("linkdown:x:1:2:3"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("loss:x:not-a-number"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("loss:x:0.1:5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("geloss:x:0.1:10:5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("linkdown:x:-1:2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_specs("squeeze:x:0:1:2"), std::invalid_argument);
  // An empty field is an error naming its clause; each of these once ran
  // as if the field were not there.
  for (const char* spec : {"linkdown:*::100:50", "squeeze:*:1000::5:10",
                           "geloss:*:0.01::"}) {
    try {
      parse_fault_specs(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // Empty clauses stay tolerated.
  EXPECT_EQ(parse_fault_specs("loss:x:0.1;;loss:y:0.2;").size(), 2u);
}

// Numbers are checked (sim::parse_double / parse_u64 / to_time): NaN loss
// silently meant no loss, and inf bytes or a NaN or 1e300 ms start were
// cast into uint64_t / sim::Time (undefined behaviour; the NaN start died
// later as "time in the past").
TEST(ParseFaults, RejectsNonFiniteAndOutOfRangeNumbers) {
  for (const char* spec :
       {"loss:sw0.p0:nan", "squeeze:sw0.p0:inf:0:10",
        "linkdown:sw0.p0:1e300:20", "linkdown:sw0.p0:nan:20",
        "linkdown:sw0.p0:1:inf", "geloss:sw0.p0:0.01:nan",
        "squeeze:sw0.p0:-1:0:10", "loss:sw0.p0:0.1:0x10:5"}) {
    try {
      parse_fault_specs(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--faults"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
}

// ------------------------------------------------------------- loss models

TEST(LossModels, BernoulliRejectsBadProbability) {
  EXPECT_THROW(BernoulliLoss(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(BernoulliLoss(1.0, 1), std::invalid_argument);
}

TEST(LossModels, GilbertElliottMatchesTargetRateAndBurst) {
  const auto params = GilbertElliottLoss::from_loss_rate(0.1, 10.0);
  GilbertElliottLoss model(params, 42);
  const auto pkt = make_test_packet(1000);

  std::uint64_t drops = 0, bursts = 0;
  bool in_burst = false;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const bool drop = model.should_drop(*pkt, 0);
    drops += drop ? 1 : 0;
    if (drop && !in_burst) ++bursts;
    in_burst = drop;
  }
  // Stationary loss rate ~= 10%, mean burst ~= 10 packets.
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.1, 0.01);
  ASSERT_GT(bursts, 0u);
  EXPECT_NEAR(static_cast<double>(drops) / static_cast<double>(bursts), 10.0,
              2.0);
}

TEST(LossModels, GilbertElliottZeroRateNeverDrops) {
  GilbertElliottLoss model(GilbertElliottLoss::from_loss_rate(0.0, 10.0), 1);
  const auto pkt = make_test_packet(1000);
  for (int i = 0; i < 10'000; ++i) EXPECT_FALSE(model.should_drop(*pkt, 0));
}

TEST(LossModels, GilbertElliottRejectsBadParams) {
  EXPECT_THROW(GilbertElliottLoss::from_loss_rate(1.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(GilbertElliottLoss::from_loss_rate(0.1, 0.5),
               std::invalid_argument);
  GilbertElliottLoss::Params p;
  p.p_good_to_bad = 1.5;
  EXPECT_THROW(GilbertElliottLoss(p, 1), std::invalid_argument);
}

// ---------------------------------------------------- port fault semantics

/// One port into a capturing peer: 1Gbps, so 1500B serializes in 12us.
struct PortRig {
  explicit PortRig(net::PortConfig cfg = {}) {
    port = std::make_unique<net::Port>(sim, "p0", cfg,
                                       std::make_unique<net::FifoScheduler>(),
                                       std::make_unique<net::NullMarker>());
    port->connect(&peer, 0);
  }
  sim::Simulator sim;
  CaptureNode peer;
  std::unique_ptr<net::Port> port;
};

TEST(PortFaults, DownedLinkBlackholesNewEnqueues) {
  PortRig rig;
  rig.port->set_link_up(false);
  for (int i = 0; i < 3; ++i) rig.port->enqueue(make_test_packet(1500), 0);
  rig.sim.run();
  EXPECT_TRUE(rig.peer.packets.empty());
  EXPECT_EQ(rig.port->counters().fault_drops, 3u);
  EXPECT_EQ(rig.port->counters().fault_drop_bytes, 4500u);
  EXPECT_EQ(rig.port->counters().drops, 0u);  // not buffer drops
  EXPECT_EQ(rig.port->counters().enq_packets, 0u);
  EXPECT_EQ(rig.port->total_bytes(), 0u);
}

TEST(PortFaults, DownedLinkBlackholesPacketOnWire) {
  PortRig rig;
  rig.port->enqueue(make_test_packet(1500), 0);
  // Serialization ends at 12us; kill the link mid-serialization.
  rig.sim.schedule_at(6 * sim::kMicrosecond,
                      [&] { rig.port->set_link_up(false); });
  rig.sim.run();
  EXPECT_TRUE(rig.peer.packets.empty());
  EXPECT_EQ(rig.port->counters().fault_drops, 1u);
  EXPECT_EQ(rig.port->counters().tx_packets, 1u);  // it left the buffer
  EXPECT_TRUE(net::port_ledger_balanced(*rig.port));
}

TEST(PortFaults, DownedLinkBlackholesDuringPropagation) {
  net::PortConfig cfg;
  cfg.prop_delay = 10 * sim::kMicrosecond;
  PortRig rig(cfg);
  rig.port->enqueue(make_test_packet(1500), 0);
  // Serialization done at 12us, delivery at 22us; down the link in between.
  rig.sim.schedule_at(15 * sim::kMicrosecond,
                      [&] { rig.port->set_link_up(false); });
  rig.sim.run();
  EXPECT_TRUE(rig.peer.packets.empty());
  EXPECT_EQ(rig.port->counters().fault_drops, 1u);
}

TEST(PortFaults, BufferedPacketsSurviveOutageAndResumeOnLinkUp) {
  PortRig rig;
  for (int i = 0; i < 5; ++i) rig.port->enqueue(make_test_packet(1500), 0);
  // First packet is on the wire when the link dies at 1us; the other four
  // stay resident and drain after the link heals at 100us.
  rig.sim.schedule_at(1 * sim::kMicrosecond,
                      [&] { rig.port->set_link_up(false); });
  rig.sim.schedule_at(100 * sim::kMicrosecond,
                      [&] { rig.port->set_link_up(true); });
  rig.sim.run();
  EXPECT_EQ(rig.port->counters().fault_drops, 1u);
  EXPECT_EQ(rig.peer.packets.size(), 4u);
  EXPECT_EQ(rig.port->total_bytes(), 0u);
  EXPECT_TRUE(net::port_ledger_balanced(*rig.port));
  // Resumed transmissions happen strictly after the link-up instant.
  EXPECT_GT(rig.sim.now(), 100 * sim::kMicrosecond);
}

TEST(PortFaults, BernoulliLossDropsRequestedFraction) {
  PortRig rig;
  BernoulliLoss loss(0.3, 7);
  rig.port->set_loss_model(&loss);
  const int n = 2000;
  for (int i = 0; i < n; ++i) rig.port->enqueue(make_test_packet(100), 0);
  rig.sim.run();
  const auto& c = rig.port->counters();
  EXPECT_EQ(rig.peer.packets.size() + c.fault_drops, static_cast<size_t>(n));
  EXPECT_NEAR(static_cast<double>(c.fault_drops) / n, 0.3, 0.05);
  EXPECT_EQ(c.drops, 0u);
  EXPECT_TRUE(net::port_ledger_balanced(*rig.port));
}

TEST(PortFaults, LossIsDeterministicForSameSeed) {
  std::uint64_t drops[2];
  for (int run = 0; run < 2; ++run) {
    PortRig rig;
    BernoulliLoss loss(0.2, 1234);
    rig.port->set_loss_model(&loss);
    for (int i = 0; i < 500; ++i) rig.port->enqueue(make_test_packet(100), 0);
    rig.sim.run();
    drops[run] = rig.port->counters().fault_drops;
  }
  EXPECT_EQ(drops[0], drops[1]);
  EXPECT_GT(drops[0], 0u);
}

TEST(PortFaults, BufferSqueezeWindowTailDropsThenRestores) {
  net::PortConfig cfg;
  cfg.buffer_bytes = 1'000'000;
  PortRig rig(cfg);
  FaultInjector injector(rig.sim);
  injector.schedule_buffer_squeeze(*rig.port, /*bytes=*/3'000,
                                   /*start=*/10 * sim::kMicrosecond,
                                   /*duration=*/10 * sim::kMicrosecond);
  EXPECT_EQ(rig.port->buffer_limit(), 1'000'000u);
  // Burst of ten 1500B packets inside the squeeze window: 12us of
  // serialization each means occupancy can't drain, so most tail-drop.
  rig.sim.schedule_at(11 * sim::kMicrosecond, [&] {
    for (int i = 0; i < 10; ++i) rig.port->enqueue(make_test_packet(1500), 0);
  });
  rig.sim.run(15 * sim::kMicrosecond);
  EXPECT_EQ(rig.port->buffer_limit(), 3'000u);
  EXPECT_GT(rig.port->counters().drops, 0u);       // congestion-style drops
  EXPECT_EQ(rig.port->counters().fault_drops, 0u);  // not blackholes
  rig.sim.run();
  EXPECT_EQ(rig.port->buffer_limit(), 1'000'000u);  // restored after window
  EXPECT_TRUE(net::port_ledger_balanced(*rig.port));
}

TEST(PortFaults, EnqueueRejectsOutOfRangeQueue) {
  net::PortConfig cfg;
  cfg.num_queues = 2;
  PortRig rig(cfg);
  EXPECT_THROW(rig.port->enqueue(make_test_packet(100), 2),
               std::invalid_argument);
  EXPECT_NO_THROW(rig.port->enqueue(make_test_packet(100), 1));
}

TEST(PortFaults, PortConfigValidation) {
  sim::Simulator sim;
  const auto make = [&](net::PortConfig cfg) {
    return std::make_unique<net::Port>(sim, "p", cfg,
                                       std::make_unique<net::FifoScheduler>(),
                                       std::make_unique<net::NullMarker>());
  };
  net::PortConfig cfg;
  EXPECT_NO_THROW(make(cfg));
  cfg.rate_bps = 0;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg = {};
  cfg.num_queues = 0;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg = {};
  cfg.prop_delay = -1;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg = {};
  cfg.rate_limit_fraction = 0.0;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg.rate_limit_fraction = 1.5;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg = {};
  cfg.rate_bps = 1;  // 1 * 0.5 rounds the effective rate to zero
  cfg.rate_limit_fraction = 0.5;
  EXPECT_THROW(make(cfg), std::invalid_argument);
}

// -------------------------------------------------------- invariant checker

TEST(Invariants, CleanOnRealPortTraffic) {
  PortRig rig;
  net::InvariantChecker checker;
  rig.port->set_observer(&checker);
  for (int i = 0; i < 50; ++i) rig.port->enqueue(make_test_packet(1500), 0);
  rig.sim.run();
  EXPECT_EQ(rig.peer.packets.size(), 50u);
  EXPECT_GT(checker.events_checked(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_EQ(checker.ports_watched(), 1u);
}

TEST(Invariants, CleanUnderLinkFlapsAndLoss) {
  net::PortConfig cfg;
  cfg.buffer_bytes = 20'000;
  PortRig rig(cfg);
  net::InvariantChecker checker(/*fail_fast=*/false);
  rig.port->set_observer(&checker);
  BernoulliLoss loss(0.1, 3);
  rig.port->set_loss_model(&loss);
  FaultInjector injector(rig.sim);
  injector.schedule_link_down(*rig.port, 200 * sim::kMicrosecond,
                              300 * sim::kMicrosecond);
  injector.schedule_buffer_squeeze(*rig.port, 4'000, 700 * sim::kMicrosecond,
                                   200 * sim::kMicrosecond);
  // Feed traffic across every fault window.
  for (int burst = 0; burst < 10; ++burst) {
    rig.sim.schedule_at(burst * 100 * sim::kMicrosecond, [&] {
      for (int i = 0; i < 8; ++i) rig.port->enqueue(make_test_packet(1500), 0);
    });
  }
  rig.sim.run();
  EXPECT_GT(checker.events_checked(), 0u);
  EXPECT_EQ(checker.violations(), 0u) << checker.first_violation();
  EXPECT_GT(rig.port->counters().fault_drops, 0u);
  EXPECT_TRUE(net::port_ledger_balanced(*rig.port));
}

net::TraceRecord make_record(net::TraceEvent ev, sim::Time t,
                             std::uint32_t size, std::uint64_t queue_bytes,
                             std::uint64_t port_bytes) {
  net::TraceRecord rec;
  rec.t = t;
  rec.event = ev;
  rec.port = "px";
  rec.queue = 0;
  rec.size = size;
  rec.queue_bytes = queue_bytes;
  rec.port_bytes = port_bytes;
  return rec;
}

TEST(Invariants, DetectsDequeueUnderflow) {
  net::InvariantChecker checker(/*fail_fast=*/false);
  checker.on_event(make_record(net::TraceEvent::kEnqueue, 0, 100, 100, 100));
  EXPECT_EQ(checker.violations(), 0u);
  // Dequeue of more bytes than the ledger holds.
  checker.on_event(make_record(net::TraceEvent::kDequeue, 1, 200, 0, 0));
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_NE(checker.first_violation().find("underflow"), std::string::npos);
}

TEST(Invariants, DetectsConservationMismatch) {
  net::InvariantChecker checker(/*fail_fast=*/false);
  // Reported occupancy disagrees with the modeled ledger (100 != 999).
  checker.on_event(make_record(net::TraceEvent::kEnqueue, 0, 100, 999, 999));
  EXPECT_EQ(checker.violations(), 2u);  // port and queue ledgers both off
  EXPECT_NE(checker.first_violation().find("conservation"),
            std::string::npos);
}

TEST(Invariants, DetectsTimeGoingBackwards) {
  net::InvariantChecker checker(/*fail_fast=*/false);
  checker.on_event(make_record(net::TraceEvent::kEnqueue, 10, 100, 100, 100));
  checker.on_event(make_record(net::TraceEvent::kEnqueue, 5, 100, 200, 200));
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_NE(checker.first_violation().find("backwards"), std::string::npos);
}

TEST(Invariants, FailFastThrows) {
  net::InvariantChecker checker(/*fail_fast=*/true);
  checker.on_event(make_record(net::TraceEvent::kEnqueue, 0, 100, 100, 100));
  EXPECT_THROW(
      checker.on_event(make_record(net::TraceEvent::kDequeue, 1, 200, 0, 0)),
      std::logic_error);
}

TEST(Invariants, DropsLeaveOccupancyUnchanged) {
  net::InvariantChecker checker(/*fail_fast=*/false);
  checker.on_event(make_record(net::TraceEvent::kEnqueue, 0, 100, 100, 100));
  checker.on_event(make_record(net::TraceEvent::kDrop, 1, 500, 100, 100));
  checker.on_event(
      make_record(net::TraceEvent::kFaultDrop, 2, 500, 100, 100));
  EXPECT_EQ(checker.violations(), 0u);
  // A drop that pretends to change occupancy is flagged.
  checker.on_event(make_record(net::TraceEvent::kDrop, 3, 500, 600, 600));
  EXPECT_EQ(checker.violations(), 2u);
}

// ----------------------------------------------- topology target resolution

topo::Network make_mini_fabric(sim::Simulator& sim) {
  topo::LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 1;
  cfg.link_rate_bps = 1'000'000'000;
  cfg.num_queues = 1;
  cfg.host_delay = 10 * sim::kMicrosecond;
  cfg.link_prop = sim::kMicrosecond;
  return topo::build_leaf_spine(
      sim, cfg, [] { return std::make_unique<net::FifoScheduler>(); },
      [](net::Scheduler&, const net::PortConfig&) {
        return std::make_unique<net::NullMarker>();
      });
}

TEST(ResolveTarget, GlobsAndPairsOverLeafSpine) {
  sim::Simulator sim;
  topo::Network network = make_mini_fabric(sim);

  // Pair form: both directions of the leaf0 <-> spine0 link.
  auto pair = resolve_target(network, "leaf0-spine0");
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0]->name(), "leaf0.p1");   // hosts_per_leaf=1 => uplink 0 is p1
  EXPECT_EQ(pair[1]->name(), "spine0.p0");  // spine port l faces leaf l

  // Globs over switch egresses and host NICs.
  EXPECT_EQ(resolve_target(network, "spine*").size(), 4u);  // 2 spines x 2 down
  EXPECT_EQ(resolve_target(network, "leaf*").size(), 6u);   // 2 x (1 host + 2 up)
  EXPECT_EQ(resolve_target(network, "*.nic").size(), 2u);
  EXPECT_TRUE(resolve_target(network, "nothing*").empty());
  EXPECT_TRUE(resolve_target(network, "leaf0-leaf1").empty());  // no such link
}

TEST(FaultInjectorTest, ApplyThrowsOnUnmatchedTarget) {
  sim::Simulator sim;
  topo::Network network = make_mini_fabric(sim);
  FaultInjector injector(sim);
  EXPECT_THROW(injector.apply(network, parse_fault_specs("loss:ghost*:0.1")),
               std::invalid_argument);
  // A matching plan applies once per (spec, port).
  EXPECT_EQ(injector.apply(network, parse_fault_specs("loss:spine*:0.01")),
            4u);
  EXPECT_EQ(injector.models_owned(), 4u);
}

// ------------------------------------------------------------ ECMP steering

TEST(EcmpSteering, FlowsAvoidDownedGroupMember) {
  sim::Simulator s;
  net::Switch sw(s, "sw");
  CaptureNode nodes[3];
  net::PortConfig cfg;
  cfg.rate_bps = 10'000'000'000ULL;
  std::vector<std::size_t> group;
  for (auto& n : nodes) {
    const auto p = sw.add_port(cfg, std::make_unique<net::FifoScheduler>(),
                               std::make_unique<net::NullMarker>());
    sw.connect(p, &n, 0);
    group.push_back(p);
  }
  sw.add_route(5, group);
  sw.port(1).set_link_up(false);

  for (std::uint16_t f = 0; f < 64; ++f) {
    auto p = make_test_packet(100, 0, f);
    p->dst = 5;
    p->src = 1;
    p->sport = 1000 + f;
    p->dport = 80;
    sw.receive(std::move(p), 0);
  }
  s.run();
  // Every packet rehashed onto a live member; the dead port saw nothing.
  EXPECT_EQ(nodes[0].packets.size() + nodes[2].packets.size(), 64u);
  EXPECT_TRUE(nodes[1].packets.empty());
  EXPECT_EQ(sw.port(1).counters().fault_drops, 0u);
  EXPECT_GT(nodes[0].packets.size(), 0u);  // 64 flows spread over both
  EXPECT_GT(nodes[2].packets.size(), 0u);
}

TEST(EcmpSteering, AllMembersDownBlackholesAtPort) {
  sim::Simulator s;
  net::Switch sw(s, "sw");
  CaptureNode a, b;
  net::PortConfig cfg;
  const auto p0 = sw.add_port(cfg, std::make_unique<net::FifoScheduler>(),
                              std::make_unique<net::NullMarker>());
  const auto p1 = sw.add_port(cfg, std::make_unique<net::FifoScheduler>(),
                              std::make_unique<net::NullMarker>());
  sw.connect(p0, &a, 0);
  sw.connect(p1, &b, 0);
  sw.add_route(5, {p0, p1});
  sw.port(p0).set_link_up(false);
  sw.port(p1).set_link_up(false);

  auto p = make_test_packet(100);
  p->dst = 5;
  sw.receive(std::move(p), 0);
  s.run();
  EXPECT_TRUE(a.packets.empty());
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(sw.port(p0).counters().fault_drops +
                sw.port(p1).counters().fault_drops,
            1u);
}

TEST(EcmpSteering, LeafSpineFlowCompletesAroundDeadUplink) {
  sim::Simulator sim;
  topo::Network network = make_mini_fabric(sim);
  FaultInjector injector(sim);
  // Down only leaf0's uplink toward spine0 (one direction) so the reverse
  // ACK path through spine0 stays usable; leaf0 must steer all data via
  // spine1.
  auto ports = resolve_target(network, "leaf0.p1");
  ASSERT_EQ(ports.size(), 1u);
  injector.schedule_link_down(*ports[0], 0, 0);

  transport::FlowManager fm;
  transport::FlowSpec spec;
  spec.size = 500'000;
  fm.start_flow(network.host(0), network.host(1), spec);
  sim.run();
  ASSERT_EQ(fm.flows_completed(), 1u);
  net::Switch& leaf0 = network.switch_at(0);
  EXPECT_EQ(leaf0.port(1).counters().enq_packets, 0u);  // steered away
  EXPECT_EQ(leaf0.port(1).counters().fault_drops, 0u);
  EXPECT_GT(leaf0.port(2).counters().tx_packets, 0u);   // via spine1
}

// ------------------------------------------------------- TCP under faults

/// Two hosts through one switch; port 1 (toward b) is the faulted hop.
struct TwoHostRig {
  TwoHostRig() : sw(sim, "sw") {
    net::PortConfig nic;
    nic.rate_bps = 10'000'000'000ULL;
    nic.prop_delay = sim::kMicrosecond;
    a = std::make_unique<net::Host>(sim, "a", 1, nic, 10 * sim::kMicrosecond);
    b = std::make_unique<net::Host>(sim, "b", 2, nic, 10 * sim::kMicrosecond);

    net::PortConfig sw_port;
    sw_port.rate_bps = 1'000'000'000;
    sw_port.prop_delay = sim::kMicrosecond;
    for (int i = 0; i < 2; ++i) {
      sw.add_port(sw_port, std::make_unique<net::FifoScheduler>(),
                  std::make_unique<net::NullMarker>());
    }
    sw.connect(0, a.get(), 0);
    sw.connect(1, b.get(), 0);
    a->connect(&sw, 0);
    b->connect(&sw, 1);
    sw.add_route(1, {0});
    sw.add_route(2, {1});
  }

  sim::Simulator sim;
  net::Switch sw;
  std::unique_ptr<net::Host> a, b;
  transport::FlowManager fm;
};

TEST(TcpFaults, CompletesUnderSustainedRandomLoss) {
  TwoHostRig rig;
  FaultInjector injector(rig.sim, 99);
  injector.add_bernoulli_loss(rig.sw.port(1), 0.03);

  transport::FlowSpec spec;
  spec.size = 300'000;
  rig.fm.start_flow(*rig.a, *rig.b, spec);
  rig.sim.run();
  ASSERT_EQ(rig.fm.flows_completed(), 1u);
  EXPECT_EQ(rig.fm.results()[0].size, 300'000u);
  EXPECT_GT(rig.sw.port(1).counters().fault_drops, 0u);
}

TEST(TcpFaults, SurvivesBlackholeWindowWithTimeouts) {
  TwoHostRig rig;
  FaultInjector injector(rig.sim);
  // 40ms full blackhole of the data path starting at 5ms: several RTOs deep.
  injector.schedule_link_down(rig.sw.port(1), 5 * sim::kMillisecond,
                              40 * sim::kMillisecond);

  transport::FlowSpec spec;
  spec.size = 2'000'000;
  spec.tcp.rto_min = 10 * sim::kMillisecond;
  spec.tcp.rto_init = 10 * sim::kMillisecond;
  rig.fm.start_flow(*rig.a, *rig.b, spec);
  rig.sim.run();
  ASSERT_EQ(rig.fm.flows_completed(), 1u);
  EXPECT_GE(rig.fm.results()[0].timeouts, 1u);
  // Recovery must come promptly after the link heals: the capped backoff
  // keeps probing, so completion lands well before a runaway exponential
  // would retry (10ms << 6 = 640ms after the 45ms heal point).
  EXPECT_LT(rig.sim.now(), 700 * sim::kMillisecond);
}

TEST(TcpFaults, BackoffCapKeepsSenderProbing) {
  // The same 100ms from-the-start blackhole, once with a tight backoff cap
  // and once loose: the capped sender must fire strictly more probe timeouts.
  const auto run_with_cap = [](std::uint32_t cap) {
    TwoHostRig rig;
    FaultInjector injector(rig.sim);
    injector.schedule_link_down(rig.sw.port(1), 0, 100 * sim::kMillisecond);
    transport::FlowSpec spec;
    spec.size = 100'000;
    spec.tcp.rto_min = sim::kMillisecond;
    spec.tcp.rto_init = sim::kMillisecond;
    spec.tcp.max_rto_backoff = cap;
    rig.fm.start_flow(*rig.a, *rig.b, spec);
    rig.sim.run();
    EXPECT_EQ(rig.fm.flows_completed(), 1u);
    return rig.fm.results()[0].timeouts;
  };
  const auto tight = run_with_cap(2);   // RTO plateaus at 4ms
  const auto loose = run_with_cap(10);  // RTO grows to ~1s
  EXPECT_GT(tight, loose);
  EXPECT_GE(tight, 15u);  // ~100ms outage probed every <= 4ms
}

// ----------------------------------------------- leaf-spine acceptance run

TEST(Acceptance, LeafSpineSurvivesGeLossAndSpineBlackhole) {
  core::FctExperiment cfg;
  cfg.topology = core::FctExperiment::Topology::kLeafSpine;
  cfg.scheme = core::Scheme::kTcn;
  cfg.params.rtt_lambda = 100 * sim::kMicrosecond;
  cfg.sched.kind = core::SchedKind::kDwrr;
  cfg.load = 0.3;
  cfg.num_flows = 60;
  cfg.num_services = 2;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.leaf_spine.num_leaves = 2;
  cfg.leaf_spine.num_spines = 2;
  cfg.leaf_spine.hosts_per_leaf = 2;
  cfg.persistent_connections = false;
  cfg.tcp.rto_min = 10 * sim::kMillisecond;
  cfg.tcp.rto_init = 10 * sim::kMillisecond;
  cfg.seed = 5;
  // 1% bursty loss on every leaf port for the whole run, plus a 50ms
  // blackhole of the leaf0<->spine0 link (both directions) mid-traffic.
  cfg.faults = parse_fault_specs("geloss:leaf*:0.01;linkdown:leaf0-spine0:5:50");
  cfg.check_invariants = true;
  cfg.time_limit = 60 * sim::kSecond;  // headroom for bursty-loss retry tails

  const auto report = core::run_fct_experiment(cfg);
  EXPECT_EQ(report.flows_started, 60u);
  // The acceptance bar: zero stuck senders despite loss and the outage.
  EXPECT_EQ(report.flows_completed, report.flows_started);
  EXPECT_GT(report.fault_drops, 0u);
  EXPECT_TRUE(report.invariants_checked);
  EXPECT_GT(report.invariant_events, 0u);
  EXPECT_EQ(report.invariant_violations, 0u) << report.invariant_message;
}

TEST(Acceptance, FaultRunsAreDeterministicForSameSeed) {
  core::FctExperiment cfg;
  cfg.scheme = core::Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.sched.kind = core::SchedKind::kDwrr;
  cfg.load = 0.4;
  cfg.num_flows = 30;
  cfg.num_services = 2;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 5;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.tcp.rto_min = 10 * sim::kMillisecond;
  cfg.tcp.rto_init = 10 * sim::kMillisecond;
  cfg.seed = 11;
  cfg.faults = parse_fault_specs("geloss:sw0*:0.02;squeeze:sw0.p0:20000:2:5");
  cfg.check_invariants = true;
  // Bursty loss has a heavy completion tail: a lone RTO prober caught in a
  // Bad burst needs ~mean_burst probes to step the chain out, each probe one
  // capped RTO apart. Leave generous sim-time headroom (events still drain
  // as soon as the last flow finishes).
  cfg.time_limit = 120 * sim::kSecond;

  const auto a = core::run_fct_experiment(cfg);
  const auto b = core::run_fct_experiment(cfg);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_DOUBLE_EQ(a.summary.avg_all_us, b.summary.avg_all_us);
  EXPECT_EQ(a.flows_completed, a.flows_started);
  EXPECT_EQ(a.invariant_violations, 0u) << a.invariant_message;
  EXPECT_GT(a.fault_drops, 0u);
}

}  // namespace
}  // namespace tcn::fault
