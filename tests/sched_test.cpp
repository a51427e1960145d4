// Scheduler tests: strict priority, DWRR quantum fairness and round-time
// tracking, WFQ weighted fairness, SP hybrids, PIFO programs, the SP-PIFO
// and AIFO approximations, plus property-style sweeps (work conservation,
// proportional sharing) over random arrival patterns and a randomized
// differential harness (true PIFO vs SP-PIFO vs AIFO on identical seeded
// streams, rank inversions counted at every departure).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "net/fifo_scheduler.hpp"
#include "net/marker.hpp"
#include "net/port.hpp"
#include "sched/aifo.hpp"
#include "sched/dwrr.hpp"
#include "sched/pifo.hpp"
#include "sched/sp.hpp"
#include "sched/sp_hybrid.hpp"
#include "sched/sp_pifo.hpp"
#include "sched/wfq.hpp"
#include "sched/wrr.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tcn::sched {
namespace {

using test::CaptureNode;
using test::make_test_packet;

/// Drives a scheduler through a Port with a frozen clock: enqueue a backlog,
/// then observe departure order byte-by-byte.
struct Rig {
  explicit Rig(std::unique_ptr<net::Scheduler> sched, std::size_t num_queues,
               std::uint64_t rate = 1'000'000'000) {
    net::PortConfig cfg;
    cfg.rate_bps = rate;
    cfg.num_queues = num_queues;
    port = std::make_unique<net::Port>(sim, "p", cfg, std::move(sched),
                                       std::make_unique<net::NullMarker>());
    port->connect(&sink, 0);
  }

  /// Bytes received by the sink per queue-of-origin (flow id = queue).
  std::vector<std::uint64_t> delivered_bytes(std::size_t num_queues) const {
    std::vector<std::uint64_t> out(num_queues, 0);
    for (const auto& p : sink.packets) out[p->flow] += p->size;
    return out;
  }

  sim::Simulator sim;
  CaptureNode sink;
  std::unique_ptr<net::Port> port;
};

TEST(SpScheduler, HighPriorityAlwaysFirst) {
  Rig rig(std::make_unique<SpScheduler>(), 2);
  // Backlog low-priority queue, then a high-priority packet arrives; it must
  // jump ahead of everything not yet in service.
  for (int i = 0; i < 5; ++i) rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
  rig.sim.run();
  ASSERT_EQ(rig.sink.packets.size(), 6u);
  // Packet 0 was already serializing; the high-priority one is second.
  EXPECT_EQ(rig.sink.packets[1]->flow, 0u);
}

TEST(DwrrScheduler, EqualQuantaGiveEqualBytes) {
  Rig rig(std::make_unique<DwrrScheduler>(std::vector<std::uint64_t>{1500, 1500}),
          2);
  for (int i = 0; i < 40; ++i) {
    rig.port->enqueue(make_test_packet(1000, 0, 0), 0);
    rig.port->enqueue(make_test_packet(500, 1, 1), 1);
  }
  rig.sim.run();
  const auto bytes = rig.delivered_bytes(2);
  EXPECT_EQ(bytes[0], 40'000u);
  EXPECT_EQ(bytes[1], 20'000u);
  // Check interleaving fairness over the first half: neither queue should be
  // more than one quantum ahead while both are backlogged.
  std::int64_t diff = 0;
  std::int64_t max_abs = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    const auto& p = rig.sink.packets[i];
    diff += (p->flow == 0) ? p->size : -static_cast<std::int64_t>(p->size);
    max_abs = std::max<std::int64_t>(max_abs, std::abs(diff));
  }
  EXPECT_LE(max_abs, 3'000);
}

TEST(DwrrScheduler, WeightedQuantaShareProportionally) {
  Rig rig(std::make_unique<DwrrScheduler>(
              std::vector<std::uint64_t>{3000, 1500}),
          2);
  for (int i = 0; i < 60; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
    rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  }
  // While both are backlogged, queue 0 gets ~2x the service. Look at the
  // first 30 departures: expect ~20 from queue 0.
  rig.sim.run();
  int q0 = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    if (rig.sink.packets[i]->flow == 0) ++q0;
  }
  EXPECT_NEAR(q0, 20, 2);
}

TEST(DwrrScheduler, DeficitCarriesOverForBigPackets) {
  // Quantum 1000 < packet 1500: queue should still drain (two rounds per
  // packet), never stall.
  Rig rig(std::make_unique<DwrrScheduler>(std::vector<std::uint64_t>{1000}),
          1);
  for (int i = 0; i < 3; ++i) rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
  rig.sim.run();
  EXPECT_EQ(rig.sink.packets.size(), 3u);
}

TEST(DwrrScheduler, EmptyQueueForfeitsDeficit) {
  auto sched = std::make_unique<DwrrScheduler>(
      std::vector<std::uint64_t>{1500, 1500});
  auto* raw = sched.get();
  Rig rig(std::move(sched), 2);
  rig.port->enqueue(make_test_packet(100, 0, 0), 0);
  rig.sim.run();
  // Queue 0 drained; re-activation must start from zero deficit (we can't
  // observe deficit directly, but service must still be fair afterwards).
  for (int i = 0; i < 20; ++i) {
    rig.port->enqueue(make_test_packet(1000, 0, 0), 0);
    rig.port->enqueue(make_test_packet(1000, 1, 1), 1);
  }
  rig.sim.run();
  const auto bytes = rig.delivered_bytes(2);
  EXPECT_EQ(bytes[0], 100u + 20'000u);
  EXPECT_EQ(bytes[1], 20'000u);
  (void)raw;
}

TEST(DwrrScheduler, RoundRateConvergesToFairShare) {
  // Two always-backlogged queues on a 1G port with equal quanta: each queue's
  // round-rate estimate must converge to ~500Mbps.
  auto sched = std::make_unique<DwrrScheduler>(
      std::vector<std::uint64_t>{1500, 1500});
  auto* raw = sched.get();
  Rig rig(std::move(sched), 2);
  for (int i = 0; i < 200; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
    rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  }
  rig.sim.run();
  const double r0 = raw->queue_rate_bps(0, rig.sim.now());
  EXPECT_NEAR(r0, 500e6, 25e6);
}

TEST(DwrrScheduler, SoleQueueEstimatesFullRate) {
  auto sched =
      std::make_unique<DwrrScheduler>(std::vector<std::uint64_t>{1500});
  auto* raw = sched.get();
  Rig rig(std::move(sched), 1);
  for (int i = 0; i < 100; ++i) rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
  rig.sim.run();
  EXPECT_NEAR(raw->queue_rate_bps(0, rig.sim.now()), 1e9, 5e7);
}

TEST(DwrrScheduler, RejectsBadConfig) {
  EXPECT_THROW(DwrrScheduler({}), std::invalid_argument);
  EXPECT_THROW(DwrrScheduler({0}), std::invalid_argument);
  EXPECT_THROW(DwrrScheduler({1500}, 1.5), std::invalid_argument);
}

TEST(WrrScheduler, PacketWeightedRotation) {
  Rig rig(std::make_unique<WrrScheduler>(std::vector<std::uint32_t>{2, 1}), 2);
  for (int i = 0; i < 30; ++i) {
    rig.port->enqueue(make_test_packet(1000, 0, 0), 0);
    rig.port->enqueue(make_test_packet(1000, 1, 1), 1);
  }
  rig.sim.run();
  // First 15 departures: queue 0 should have ~2/3.
  int q0 = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    if (rig.sink.packets[i]->flow == 0) ++q0;
  }
  EXPECT_NEAR(q0, 10, 1);
}

TEST(WfqScheduler, EqualWeightsAlternateBytes) {
  Rig rig(std::make_unique<WfqScheduler>(std::vector<double>{1.0, 1.0}), 2);
  for (int i = 0; i < 40; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
    rig.port->enqueue(make_test_packet(500, 1, 1), 1);
  }
  rig.sim.run();
  // While both stay backlogged (queue 1 holds only 20KB; with equal weights
  // it drains once queue 0 has also received ~20KB, i.e. through departure
  // ~48), served bytes stay within about one max packet of each other.
  std::int64_t diff = 0;
  for (std::size_t i = 0; i < 48; ++i) {
    const auto& p = rig.sink.packets[i];
    diff += (p->flow == 0) ? p->size : -static_cast<std::int64_t>(p->size);
    EXPECT_LE(std::abs(diff), 3000) << "at departure " << i;
  }
}

TEST(WfqScheduler, WeightsGiveProportionalService) {
  Rig rig(std::make_unique<WfqScheduler>(std::vector<double>{3.0, 1.0}), 2);
  for (int i = 0; i < 80; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
    rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  }
  rig.sim.run();
  int q0 = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    if (rig.sink.packets[i]->flow == 0) ++q0;
  }
  EXPECT_NEAR(q0, 30, 2);
}

TEST(WfqScheduler, LateArrivalGetsImmediateShare) {
  // Queue 1 starts late; once it arrives it should not be starved by queue
  // 0's accumulated backlog (SCFQ resumes from current virtual time).
  Rig rig(std::make_unique<WfqScheduler>(std::vector<double>{1.0, 1.0}), 2);
  for (int i = 0; i < 50; ++i) rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
  rig.sim.schedule_at(100 * sim::kMicrosecond, [&] {
    for (int i = 0; i < 10; ++i) rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  });
  rig.sim.run();
  // Find the arrival point in the departure sequence; after it, service
  // should alternate rather than finishing queue 0 first.
  std::size_t first_q1 = 0;
  for (std::size_t i = 0; i < rig.sink.packets.size(); ++i) {
    if (rig.sink.packets[i]->flow == 1) {
      first_q1 = i;
      break;
    }
  }
  // 100us at 1G = ~8.3 packets; queue 1's first packet should depart within
  // a couple of packets after its arrival, not after queue 0's 50.
  EXPECT_LT(first_q1, 14u);
}

TEST(SpHybridScheduler, StrictQueueStarvesInner) {
  auto inner = std::make_unique<WfqScheduler>(std::vector<double>{1, 1, 1});
  Rig rig(std::make_unique<SpHybridScheduler>(1, std::move(inner)), 3);
  for (int i = 0; i < 10; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
    rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
    rig.port->enqueue(make_test_packet(1500, 2, 2), 2);
  }
  rig.sim.run();
  // All SP packets must depart before the last SP packet time; specifically
  // among the first 11 departures at least 10 are from queue 0.
  int sp = 0;
  for (std::size_t i = 0; i < 11; ++i) {
    if (rig.sink.packets[i]->flow == 0) ++sp;
  }
  EXPECT_GE(sp, 10);
}

TEST(SpHybridScheduler, InnerSharesFairlyWhenSpIdle) {
  auto inner = std::make_unique<DwrrScheduler>(
      std::vector<std::uint64_t>{1500, 1500, 1500});
  Rig rig(std::make_unique<SpHybridScheduler>(1, std::move(inner)), 3);
  for (int i = 0; i < 30; ++i) {
    rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
    rig.port->enqueue(make_test_packet(1500, 2, 2), 2);
  }
  rig.sim.run();
  const auto bytes = rig.delivered_bytes(3);
  EXPECT_EQ(bytes[1], bytes[2]);
}

TEST(SpHybridScheduler, RejectsBadConfig) {
  EXPECT_THROW(SpHybridScheduler(0, std::make_unique<SpScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(SpHybridScheduler(1, nullptr), std::invalid_argument);
}

TEST(PifoScheduler, PriorityProgramActsAsStrictPriority) {
  Rig rig(std::make_unique<PifoScheduler>(priority_rank_program()), 2);
  for (int i = 0; i < 5; ++i) rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
  rig.sim.run();
  EXPECT_EQ(rig.sink.packets[1]->flow, 0u);
}

TEST(PifoScheduler, StfqProgramApproximatesFairness) {
  Rig rig(std::make_unique<PifoScheduler>(stfq_rank_program({1.0, 1.0})), 2);
  for (int i = 0; i < 40; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
    rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  }
  rig.sim.run();
  int q0 = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    if (rig.sink.packets[i]->flow == 0) ++q0;
  }
  EXPECT_NEAR(q0, 20, 2);
}

TEST(SpPifoScheduler, PriorityProgramActsAsStrictPriority) {
  Rig rig(std::make_unique<SpPifoScheduler>(8, priority_rank_program()), 2);
  for (int i = 0; i < 5; ++i) rig.port->enqueue(make_test_packet(1500, 1, 1), 1);
  rig.port->enqueue(make_test_packet(1500, 0, 0), 0);
  rig.sim.run();
  EXPECT_EQ(rig.sink.packets[1]->flow, 0u);
}

TEST(SpPifoScheduler, PushUpAndPushDownTrackRanks) {
  // Feed ranks directly. 10 lands at the bottom (push-up to 10); each
  // successively smaller rank climbs one level as the lower bounds block it;
  // rank 1 raises bounds_[0] to 1; then rank 0 undercuts even the top bound
  // -> the paper's adaptation: every bound drops by the miss cost and the
  // packet is admitted at level 0.
  std::vector<std::int64_t> ranks = {10, 5, 3, 1, 0};
  std::size_t i = 0;
  auto sched = std::make_unique<SpPifoScheduler>(
      4, [&](const net::Packet&, std::size_t, sim::Time) {
        return ranks[i++];
      });
  auto* raw = sched.get();
  Rig rig(std::move(sched), 1);
  rig.port->enqueue(make_test_packet(100, 0, 0), 0);  // rank 10 -> level 3
  EXPECT_EQ(raw->last_level(), 3u);
  EXPECT_EQ(raw->bound(3), 10);
  rig.port->enqueue(make_test_packet(100, 0, 1), 0);  // rank 5 -> level 2
  EXPECT_EQ(raw->last_level(), 2u);
  rig.port->enqueue(make_test_packet(100, 0, 2), 0);  // rank 3 -> level 1
  rig.port->enqueue(make_test_packet(100, 0, 3), 0);  // rank 1 -> level 0
  EXPECT_EQ(raw->last_level(), 0u);
  EXPECT_EQ(raw->bound(0), 1);
  EXPECT_EQ(raw->push_downs(), 0u);
  rig.port->enqueue(make_test_packet(100, 0, 4), 0);  // rank 0: push-down
  EXPECT_EQ(raw->push_downs(), 1u);
  EXPECT_EQ(raw->last_level(), 0u);
  // The adaptation slides the whole ladder by the miss cost (1), landing
  // bounds_[0] exactly on the new rank; the ladder stays monotone.
  EXPECT_EQ(raw->bound(0), 0);
  for (std::size_t l = 1; l < raw->levels(); ++l) {
    EXPECT_LE(raw->bound(l - 1), raw->bound(l)) << "level " << l;
  }
  rig.sim.run();
}

TEST(SpPifoScheduler, BottomUpScanLandsAtFirstClearedBound) {
  // Equal high ranks pile into the bottom level (its bound always clears);
  // a much smaller rank then climbs past the raised bound to the first
  // level still at its initial bound -- a plain hit, not a push-down.
  std::vector<std::int64_t> ranks = {100, 100, 100, 100, 1};
  std::size_t i = 0;
  auto sched = std::make_unique<SpPifoScheduler>(
      4, [&](const net::Packet&, std::size_t, sim::Time) {
        return ranks[i++];
      });
  auto* raw = sched.get();
  Rig rig(std::move(sched), 1);
  for (int k = 0; k < 4; ++k) {
    rig.port->enqueue(make_test_packet(100, 0, k), 0);
    EXPECT_EQ(raw->last_level(), 3u);
  }
  EXPECT_EQ(raw->bound(3), 100);
  const std::uint64_t before = raw->push_downs();
  rig.port->enqueue(make_test_packet(100, 0, 4), 0);  // rank 1 -> level 2
  EXPECT_EQ(raw->push_downs(), before);
  EXPECT_EQ(raw->last_level(), 2u);
  rig.sim.run();
}

TEST(SpPifoScheduler, RejectsBadConfig) {
  EXPECT_THROW(SpPifoScheduler(1, priority_rank_program()),
               std::invalid_argument);
  EXPECT_THROW(SpPifoScheduler(8, sched::RankProgram{}),
               std::invalid_argument);
}

TEST(AifoScheduler, DequeuesInGlobalFifoOrder) {
  // Interleave enqueues across 3 queues; AIFO must deliver in arrival order
  // regardless of which physical queue a packet was classified into.
  Rig rig(std::make_unique<AifoScheduler>(16, 0.1, stfq_rank_program({1, 1, 1})),
          3);
  std::vector<std::uint64_t> arrival_order;
  sim::Rng rng(7);
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto q = static_cast<std::size_t>(rng.uniform_int(0, 2));
    arrival_order.push_back(i);
    rig.port->enqueue(make_test_packet(1000, static_cast<std::uint8_t>(q), i),
                      q);
  }
  rig.sim.run();
  ASSERT_EQ(rig.sink.packets.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(rig.sink.packets[i]->flow, arrival_order[i]) << "position " << i;
  }
}

TEST(AifoScheduler, AdmissionIsMonotoneInRankAndOccupancy) {
  // Populate the window with a known rank spread, then probe the admission
  // predicate directly: admit must never flip to reject as the rank drops
  // or as the buffer empties.
  std::int64_t next_rank = 0;
  AifoScheduler s(32, 0.1,
                  [&](const net::Packet&, std::size_t, sim::Time) {
                    return next_rank;
                  });
  const auto pkt = make_test_packet(1000);
  for (std::int64_t r = 0; r < 32; ++r) {
    next_rank = r;
    s.admit(0, *pkt, 0, 0, UINT64_MAX);  // unlimited: always admitted
  }
  EXPECT_EQ(s.admitted(), 32u);
  EXPECT_EQ(s.rejected(), 0u);
  const std::uint64_t capacity = 10'000;
  for (std::uint64_t occ = 0; occ <= capacity; occ += 500) {
    bool prev = true;
    for (std::int64_t r = 0; r < 40; ++r) {
      const bool now = s.would_admit(r, occ, capacity);
      if (!prev) {
        EXPECT_FALSE(now) << "admit flipped back on at rank " << r
                          << " occ " << occ;
      }
      prev = now;
    }
  }
  for (std::int64_t r = 0; r < 40; ++r) {
    bool prev = s.would_admit(r, 0, capacity);
    EXPECT_TRUE(prev) << "empty buffer must admit rank " << r;
    for (std::uint64_t occ = 0; occ <= capacity; occ += 500) {
      const bool now = s.would_admit(r, occ, capacity);
      if (!now) prev = false;
      if (!prev) {
        EXPECT_FALSE(now) << "admit flipped back on at occ " << occ
                          << " rank " << r;
      }
    }
  }
  // Low ranks survive pressure longer than high ranks.
  EXPECT_TRUE(s.would_admit(0, capacity - 1'000, capacity));
  EXPECT_FALSE(s.would_admit(100, capacity - 1'000, capacity));
}

TEST(AifoScheduler, RejectsUnderPressureAndCountsSchedDrops) {
  // Tight shared buffer: packets with high STFQ ranks arriving into a nearly
  // full port are rejected by AIFO (sched_drops), not tail-dropped by the
  // buffer, and the marker/AQM never sees them.
  Rig rig(std::make_unique<AifoScheduler>(16, 0.0, stfq_rank_program({1, 1})),
          2);
  rig.port->set_buffer_limit(4'000);
  for (std::uint64_t i = 0; i < 40; ++i) {
    rig.port->enqueue(
        make_test_packet(1000, static_cast<std::uint8_t>(i % 2), i), i % 2);
  }
  rig.sim.run();
  const auto& c = rig.port->counters();
  EXPECT_GT(c.sched_drops, 0u);
  EXPECT_EQ(c.enq_packets + c.sched_drops + c.drops, 40u);
  EXPECT_EQ(c.sched_drop_bytes, c.sched_drops * 1'000u);
  // Ledger: admitted bytes all delivered (frozen clock drains everything).
  EXPECT_EQ(c.enq_bytes, c.tx_bytes);
  EXPECT_EQ(rig.sink.packets.size(), c.enq_packets);
}

TEST(AifoScheduler, RejectsBadConfig) {
  EXPECT_THROW(AifoScheduler(0, 0.1, priority_rank_program()),
               std::invalid_argument);
  EXPECT_THROW(AifoScheduler(8, 1.0, priority_rank_program()),
               std::invalid_argument);
  EXPECT_THROW(AifoScheduler(8, -0.1, priority_rank_program()),
               std::invalid_argument);
  EXPECT_THROW(AifoScheduler(8, 0.1, sched::RankProgram{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Differential harness: identical seeded arrival streams through true PIFO,
// SP-PIFO and AIFO. Ranks are precomputed per arrival and monotone within
// each queue (the head-packet compromise's exactness precondition), so the
// true PIFO is the zero-inversion reference; SP-PIFO must approximate it
// (strictly fewer inversions than not scheduling at all = AIFO's global
// FIFO), and AIFO must depart in exact arrival order.
// ---------------------------------------------------------------------------

struct DiffStream {
  std::vector<sim::Time> times;        // strictly increasing
  std::vector<std::size_t> queues;     // classified physical queue
  std::vector<std::uint32_t> sizes;
  std::vector<std::int64_t> ranks;     // per arrival, monotone per queue
};

DiffStream make_diff_stream(std::uint64_t seed, std::size_t n,
                            std::size_t nq) {
  DiffStream s;
  sim::Rng rng(seed);
  sim::Time t = 0;
  std::vector<std::int64_t> next_rank(nq, 0);
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<sim::Time>(rng.uniform_int(1, 12'000));  // ns gaps
    s.times.push_back(t);
    const auto q = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::uint64_t>(nq - 1)));
    s.queues.push_back(q);
    s.sizes.push_back(static_cast<std::uint32_t>(rng.uniform_int(100, 1500)));
    // Per-queue monotone ranks that interleave arbitrarily across queues.
    next_rank[q] += static_cast<std::int64_t>(rng.uniform_int(0, 50));
    s.ranks.push_back(next_rank[q]);
  }
  return s;
}

/// Counts rank inversions the SP-PIFO way: a departure is an inversion when
/// some packet with a strictly smaller rank is still buffered behind it.
struct InversionCounter final : net::PortObserver {
  explicit InversionCounter(const std::vector<std::int64_t>& ranks)
      : ranks_(ranks) {}
  void on_event(const net::TraceRecord& rec) override {
    const std::int64_t r = ranks_[rec.flow];
    if (rec.event == net::TraceEvent::kEnqueue) {
      buffered_.insert(r);
    } else if (rec.event == net::TraceEvent::kDequeue) {
      buffered_.erase(buffered_.find(r));
      if (!buffered_.empty() && *buffered_.begin() < r) ++inversions;
    }
  }
  const std::vector<std::int64_t>& ranks_;
  std::multiset<std::int64_t> buffered_;
  std::uint64_t inversions = 0;
};

struct DiffResult {
  std::uint64_t inversions = 0;
  std::vector<std::uint64_t> departures;  // flow ids (= arrival index)
  std::uint64_t delivered_bytes = 0;
};

DiffResult run_diff(const DiffStream& s, std::size_t nq,
                    std::unique_ptr<net::Scheduler> sched) {
  Rig rig(std::move(sched), nq);
  InversionCounter counter(s.ranks);
  rig.port->set_observer(&counter);
  for (std::size_t i = 0; i < s.times.size(); ++i) {
    rig.sim.schedule_at(s.times[i], [&rig, &s, i] {
      rig.port->enqueue(make_test_packet(s.sizes[i], 0, i), s.queues[i]);
    });
  }
  rig.sim.run();
  DiffResult r;
  r.inversions = counter.inversions;
  for (const auto& p : rig.sink.packets) {
    r.departures.push_back(p->flow);
    r.delivered_bytes += p->size;
  }
  rig.port->set_observer(nullptr);
  return r;
}

TEST(SchedulerDifferential, PifoExactSpPifoBoundedAifoFifo) {
  const std::size_t nq = 4;
  std::uint64_t sp_pifo_total = 0, fifo_total = 0;
  for (const std::uint64_t seed : {11u, 23u, 37u, 59u, 71u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const DiffStream s = make_diff_stream(seed, 300, nq);
    auto rank_fn = [&s](const net::Packet& p, std::size_t, sim::Time) {
      return s.ranks[p.flow];
    };

    const DiffResult pifo =
        run_diff(s, nq, std::make_unique<PifoScheduler>(rank_fn));
    const DiffResult sp_pifo =
        run_diff(s, nq, std::make_unique<SpPifoScheduler>(8, rank_fn));
    const DiffResult aifo =
        run_diff(s, nq, std::make_unique<AifoScheduler>(128, 0.1, rank_fn));

    // Same stream, no drops (unlimited buffer): byte totals agree.
    EXPECT_EQ(pifo.delivered_bytes, sp_pifo.delivered_bytes);
    EXPECT_EQ(pifo.delivered_bytes, aifo.delivered_bytes);
    EXPECT_EQ(pifo.departures.size(), s.times.size());

    // True PIFO with per-queue monotone ranks never inverts.
    EXPECT_EQ(pifo.inversions, 0u);

    // AIFO departs in exact arrival order -- its inversion count is the
    // "no scheduling" baseline for this stream.
    for (std::size_t i = 0; i < aifo.departures.size(); ++i) {
      ASSERT_EQ(aifo.departures[i], i) << "AIFO broke FIFO at position " << i;
    }

    // SP-PIFO approximates the PIFO: never worse than FIFO order.
    EXPECT_LE(sp_pifo.inversions, aifo.inversions);
    sp_pifo_total += sp_pifo.inversions;
    fifo_total += aifo.inversions;

    // Determinism: an identical re-run reproduces the departure sequence
    // and the inversion count exactly.
    const DiffResult again =
        run_diff(s, nq, std::make_unique<SpPifoScheduler>(8, rank_fn));
    EXPECT_EQ(again.inversions, sp_pifo.inversions);
    EXPECT_EQ(again.departures, sp_pifo.departures);
  }
  // Across the seeds the approximation must beat FIFO strictly: scheduling
  // happened. (FIFO baseline is nonzero for these streams by construction.)
  EXPECT_GT(fifo_total, 0u);
  EXPECT_LT(sp_pifo_total, fifo_total);
}

TEST(SchedulerDifferential, SpPifoMoreLevelsNeverHurtMuch) {
  // Sanity on the approximation knob: with as many levels as distinct rank
  // regimes, inversions shrink toward the PIFO's zero. Compare 2 vs 8
  // levels aggregated over seeds -- deterministic, so a stable regression
  // guard rather than a statistical claim.
  const std::size_t nq = 4;
  std::uint64_t two_total = 0, eight_total = 0;
  for (const std::uint64_t seed : {5u, 13u, 29u}) {
    const DiffStream s = make_diff_stream(seed, 300, nq);
    auto rank_fn = [&s](const net::Packet& p, std::size_t, sim::Time) {
      return s.ranks[p.flow];
    };
    two_total +=
        run_diff(s, nq, std::make_unique<SpPifoScheduler>(2, rank_fn))
            .inversions;
    eight_total +=
        run_diff(s, nq, std::make_unique<SpPifoScheduler>(8, rank_fn))
            .inversions;
  }
  EXPECT_LE(eight_total, two_total);
}

// ---------------------------------------------------------------------------
// Property sweeps: random arrivals, invariants that must hold for any
// work-conserving fair scheduler.
// ---------------------------------------------------------------------------

struct SchedCase {
  const char* name;
  std::function<std::unique_ptr<net::Scheduler>(std::size_t nq)> make;
};

class SchedulerPropertyTest : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerPropertyTest, WorkConservingUnderRandomArrivals) {
  const std::size_t nq = 4;
  Rig rig(GetParam().make(nq), nq);
  sim::Rng rng(99);
  std::uint64_t total_in = 0;
  // Burst arrivals at random times within 1ms; link 1G drains 125KB/ms.
  for (int i = 0; i < 60; ++i) {
    const auto t = static_cast<sim::Time>(rng.uniform(0, 1e6));
    const auto q = static_cast<std::size_t>(rng.uniform_int(0, nq - 1));
    const auto size = static_cast<std::uint32_t>(rng.uniform_int(100, 1500));
    total_in += size;
    rig.sim.schedule_at(t, [&rig, q, size] {
      rig.port->enqueue(make_test_packet(size, static_cast<std::uint8_t>(q), q),
                        q);
    });
  }
  rig.sim.run();
  // Everything delivered, nothing lost or duplicated.
  std::uint64_t total_out = 0;
  for (const auto& p : rig.sink.packets) total_out += p->size;
  EXPECT_EQ(total_in, total_out);
  // Work conservation: the link never idles while backlogged, so the total
  // drain time is at most last-arrival + total-bytes serialization.
  EXPECT_LE(rig.sim.now(),
            1 * sim::kMillisecond +
                sim::transmission_time(total_in, 1'000'000'000));
}

TEST_P(SchedulerPropertyTest, BackloggedQueuesShareWithinFactorTwo) {
  const std::size_t nq = 4;
  Rig rig(GetParam().make(nq), nq);
  // Keep all queues heavily backlogged with equal-size packets.
  for (int i = 0; i < 100; ++i) {
    for (std::size_t q = 0; q < nq; ++q) {
      rig.port->enqueue(
          make_test_packet(1000, static_cast<std::uint8_t>(q), q), q);
    }
  }
  rig.sim.run();
  // Inspect the first half of departures (all queues still backlogged).
  std::vector<int> counts(nq, 0);
  for (std::size_t i = 0; i < 200; ++i) ++counts[rig.sink.packets[i]->flow];
  for (std::size_t q = 0; q < nq; ++q) {
    EXPECT_GE(counts[q], 25) << "queue " << q << " starved";
    EXPECT_LE(counts[q], 100) << "queue " << q << " hogged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FairSchedulers, SchedulerPropertyTest,
    ::testing::Values(
        SchedCase{"dwrr",
                  [](std::size_t nq) {
                    return std::make_unique<DwrrScheduler>(
                        std::vector<std::uint64_t>(nq, 1500));
                  }},
        SchedCase{"wrr",
                  [](std::size_t nq) {
                    return std::make_unique<WrrScheduler>(
                        std::vector<std::uint32_t>(nq, 1));
                  }},
        SchedCase{"wfq",
                  [](std::size_t nq) {
                    return std::make_unique<WfqScheduler>(
                        std::vector<double>(nq, 1.0));
                  }},
        SchedCase{"pifo_stfq",
                  [](std::size_t nq) {
                    return std::make_unique<PifoScheduler>(
                        stfq_rank_program(std::vector<double>(nq, 1.0)));
                  }},
        SchedCase{"sp_pifo_stfq",
                  [](std::size_t nq) {
                    return std::make_unique<SpPifoScheduler>(
                        8, stfq_rank_program(std::vector<double>(nq, 1.0)));
                  }},
        SchedCase{"aifo_stfq",
                  [](std::size_t nq) {
                    return std::make_unique<AifoScheduler>(
                        128, 0.1,
                        stfq_rank_program(std::vector<double>(nq, 1.0)));
                  }}),
    [](const ::testing::TestParamInfo<SchedCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace tcn::sched
