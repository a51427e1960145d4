// PacketPool, sim::Fifo and hot-path allocation tests.
//
// This binary overrides global operator new/delete with counting wrappers
// so the central claim of the zero-allocation refactor -- steady-state
// event scheduling, packet churn, the port pipeline and the trace writer
// perform no heap allocations at all -- is asserted directly, not inferred
// from throughput. The override is per-binary, which is why these tests live in
// their own test target.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <limits>
#include <new>
#include <ostream>
#include <set>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <utility>
#include <vector>

#include "aqm/tcn.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/trace.hpp"
#include "obs/export.hpp"
#include "sched/dwrr.hpp"
#include "sim/fifo.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting global allocator. Counts every operator new in the process --
// gtest bookkeeping included -- so assertions sample the counter tightly
// around the code under test and nothing else.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// GCC's -Wmismatched-new-delete heuristic misfires on replacement
// deallocation functions that visibly call free() on memory from the
// replacement operator new above (which itself uses malloc, so the pair
// does match); silence it for exactly these four definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace tcn {

namespace sim {
/// Fakes a ring's element count, so the 2^32 - 1 limit is reachable
/// without allocating 2^32 elements.
struct FifoTestPeer {
  template <typename T>
  static void set_size(Fifo<T>& f, std::uint32_t n) {
    f.size_ = n;
  }
};
}  // namespace sim

namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// ------------------------------------------------------------ pool basics ----

TEST(PacketPool, RecycleReusesAndFullyReinitializes) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);

  net::PacketPtr p = net::make_packet();
  net::Packet* raw = p.get();
  const std::uint64_t first_uid = p->uid;
  // Dirty every interesting field.
  p->type = net::PacketType::kAck;
  p->size = 1500;
  p->payload = 1460;
  p->seq = 77;
  p->ack = 99;
  p->ece = true;
  p->ecn = net::Ecn::kCe;
  p->dscp = 5;
  p->sack_count = 2;
  p->enqueue_ts = 123;
  p.reset();  // recycles

  EXPECT_EQ(pool.fresh_allocs(), 1u);
  EXPECT_EQ(pool.recycles(), 1u);
  EXPECT_EQ(pool.free_size(), 1u);

  net::PacketPtr q = net::make_packet();
  // Same storage, reset state, fresh uid.
  EXPECT_EQ(q.get(), raw);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(q->uid, first_uid + 1);
  EXPECT_EQ(q->type, net::PacketType::kData);
  EXPECT_EQ(q->size, 0u);
  EXPECT_EQ(q->payload, 0u);
  EXPECT_EQ(q->seq, 0u);
  EXPECT_EQ(q->ack, 0u);
  EXPECT_FALSE(q->ece);
  EXPECT_EQ(q->ecn, net::Ecn::kNotEct);
  EXPECT_EQ(q->dscp, 0u);
  EXPECT_EQ(q->sack_count, 0u);
  EXPECT_EQ(q->enqueue_ts, 0);
  EXPECT_FALSE(q->pool_free);
}

TEST(PacketPool, LifoReuseKeepsCacheWarmOrder) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  net::PacketPtr a = net::make_packet();
  net::PacketPtr b = net::make_packet();
  net::Packet* rb = b.get();
  a.reset();
  b.reset();
  // LIFO: the most recently recycled packet comes back first.
  net::PacketPtr c = net::make_packet();
  EXPECT_EQ(c.get(), rb);
}

TEST(PacketPool, LiveCountTracksOutstandingHandles) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  EXPECT_EQ(pool.live(), 0u);
  auto a = net::make_packet();
  auto b = net::make_packet();
  EXPECT_EQ(pool.live(), 2u);
  a.reset();
  EXPECT_EQ(pool.live(), 1u);
  b.reset();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, NoScopeFallsBackToHeap) {
  // Outside any scope make_packet() still works (tests, ad-hoc tools); the
  // deleter plain-deletes instead of recycling.
  net::PacketPtr p = net::make_packet();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(net::PacketPool::current(), nullptr);
  p.reset();  // must not crash; nothing to assert beyond ASan cleanliness
}

TEST(PacketPool, ScopesNestAndRestore) {
  net::PacketPool outer;
  net::PacketPool::Scope outer_scope(outer);
  EXPECT_EQ(net::PacketPool::current(), &outer);
  {
    net::PacketPool inner;
    net::PacketPool::Scope inner_scope(inner);
    EXPECT_EQ(net::PacketPool::current(), &inner);
    auto p = net::make_packet();
    p.reset();
    EXPECT_EQ(inner.fresh_allocs(), 1u);
    EXPECT_EQ(outer.fresh_allocs(), 0u);
  }
  EXPECT_EQ(net::PacketPool::current(), &outer);
}

// ------------------------------------------------------- misuse handling ----

TEST(PacketPool, DoubleRecycleIsDetectedAndDropped) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  auto p = net::make_packet();
  net::Packet* raw = p.get();
  p.reset();  // legitimate recycle
  ASSERT_EQ(pool.free_size(), 1u);

  // Direct misuse of the pool API: recycling a packet already on the free
  // list. Must not double-insert (which would later hand the same storage
  // to two owners) and must stay memory-safe -- slab storage is pool-owned,
  // so this is a counted logical error, not heap corruption.
  pool.recycle(raw);
  EXPECT_EQ(pool.double_recycles(), 1u);
  EXPECT_EQ(pool.free_size(), 1u);
  EXPECT_EQ(pool.recycles(), 1u);

  // The pool still functions normally afterwards.
  auto q = net::make_packet();
  EXPECT_EQ(q.get(), raw);
  EXPECT_EQ(pool.double_recycles(), 1u);
}

// ------------------------------------------------------- scope isolation ----

TEST(PacketPool, ConcurrentRunsNeverSharePackets) {
  // Two "sweep jobs" on separate threads, each with its own pool scope (the
  // runner's per-job setup). The storage each job sees must be disjoint and
  // each pool's counters must only reflect its own job.
  constexpr int kPackets = 500;
  std::set<const net::Packet*> seen_a, seen_b;
  // Pools outlive both jobs so the pointer sets are compared while both
  // slabs are still live -- otherwise the allocator could legitimately
  // hand thread B the addresses thread A's destroyed pool freed.
  net::PacketPool pool_a, pool_b;

  auto job = [](net::PacketPool& pool, std::set<const net::Packet*>& seen) {
    net::PacketUidScope uids;
    net::PacketPool::Scope scope(pool);
    for (int i = 0; i < kPackets; ++i) {
      auto p = net::make_packet();
      seen.insert(p.get());
      if (i % 3 == 0) p.reset();  // mix held and recycled packets
    }
  };

  std::thread ta([&] { job(pool_a, seen_a); });
  std::thread tb([&] { job(pool_b, seen_b); });
  ta.join();
  tb.join();

  EXPECT_GT(pool_a.fresh_allocs(), 0u);
  EXPECT_GT(pool_b.fresh_allocs(), 0u);
  // Each pool only ever served its own job's thread...
  EXPECT_EQ(pool_a.fresh_allocs() + pool_a.reuses(),
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(pool_b.fresh_allocs() + pool_b.reuses(),
            static_cast<std::uint64_t>(kPackets));
  // ...and the storage the two jobs saw is disjoint.
  for (const net::Packet* p : seen_a) {
    EXPECT_EQ(seen_b.count(p), 0u) << "pools shared packet storage";
  }
}

// -------------------------------------------------- zero-allocation proof ----

TEST(HotPath, SteadyStateEventAndPacketChurnIsAllocationFree) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  sim::Simulator s;

  // A self-clocked event chain that acquires a packet per tick and carries
  // it inside the event capture -- the port-serialization pattern. The
  // packet recycles when the fired event's callback is destroyed.
  struct Churn {
    sim::Simulator* s;
    int* remaining;
    void operator()() {
      if (--*remaining <= 0) return;
      auto p = net::make_packet();
      p->size = 1500;
      s->schedule_in(100, [c = *this, pkt = std::move(p)]() mutable { c(); });
    }
  };

  int remaining = 2'000;
  s.schedule_at(0, Churn{&s, &remaining});
  s.run();  // warmup: slab growth, heap-vector growth, free-list fill
  ASSERT_EQ(remaining, 0);
  const std::uint64_t fresh_after_warmup = pool.fresh_allocs();

  remaining = 10'000;
  s.schedule_in(100, Churn{&s, &remaining});
  const std::uint64_t allocs_before = allocs();
  s.run();
  const std::uint64_t allocs_after = allocs();
  ASSERT_EQ(remaining, 0);

  // The claim of the refactor, asserted literally: ten thousand
  // schedule+fire+packet-acquire+recycle cycles, zero heap allocations.
  EXPECT_EQ(allocs_after - allocs_before, 0u);
  // And the pool-side view agrees: no slab growth after warmup, all reuse.
  EXPECT_EQ(pool.fresh_allocs(), fresh_after_warmup);
  EXPECT_GE(pool.reuses(), 10'000u - fresh_after_warmup);
}

// Hands what the host's NIC sends to a switch port, queue = DSCP.
class PortFeed final : public net::Node {
 public:
  explicit PortFeed(net::Port& port) : port_(port) {}
  void receive(net::PacketPtr p, std::size_t) override {
    const std::size_t q = p->dscp;
    port_.enqueue(std::move(p), q);
  }
  [[nodiscard]] std::string_view name() const override { return "feed"; }

 private:
  net::Port& port_;
};

// Recycles what the switch port delivers.
class Drain final : public net::Node {
 public:
  void receive(net::PacketPtr, std::size_t) override { ++received; }
  [[nodiscard]] std::string_view name() const override { return "drain"; }
  std::uint64_t received = 0;
};

TEST(HotPath, SteadyStatePortPipelineIsAllocationFree) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  sim::Simulator s;

  // Host (stack delay, FIFO NIC at 40G) -> 4-queue DWRR + TCN port at 10G
  // -> drain. Each 5 us the host sends one 1500-byte packet per queue: 4.8
  // us of work for the port, so its queues fill and empty and DWRR's active
  // list gains and loses queues on every burst.
  net::PortConfig nic;
  nic.rate_bps = 40'000'000'000ULL;
  net::Host host(s, "h0", 1, nic, /*stack_delay=*/2 * sim::kMicrosecond);
  net::PortConfig cfg;
  cfg.rate_bps = 10'000'000'000ULL;
  cfg.num_queues = 4;
  net::Port port(
      s, "sw.p0", cfg,
      std::make_unique<sched::DwrrScheduler>(
          std::vector<std::uint64_t>(4, 1500)),
      std::make_unique<aqm::TcnMarker>(2 * sim::kMicrosecond));
  PortFeed feed(port);
  Drain drain;
  host.connect(&feed, 0);
  port.connect(&drain, 0);

  struct Bursts {
    sim::Simulator* s;
    net::Host* host;
    int* remaining;
    void operator()() {
      for (std::uint8_t q = 0; q < 4 && *remaining > 0; ++q, --*remaining) {
        auto p = net::make_packet();
        p->size = 1500;
        p->dscp = q;
        p->ecn = net::Ecn::kEct0;
        p->dst = 2;
        host->send(std::move(p));
      }
      if (*remaining > 0) s->schedule_in(5 * sim::kMicrosecond, *this);
    }
  };

  int remaining = 10'000;
  s.schedule_at(0, Bursts{&s, &host, &remaining});
  s.run();  // warmup: pools, calendar, and every ring at its peak depth
  ASSERT_EQ(drain.received, 10'000u);

  remaining = 10'000;
  s.schedule_in(5 * sim::kMicrosecond, Bursts{&s, &host, &remaining});
  const std::uint64_t allocs_before = allocs();
  s.run();
  const std::uint64_t allocs_after = allocs();
  ASSERT_EQ(drain.received, 20'000u);

  EXPECT_EQ(allocs_after - allocs_before, 0u);
  // The pipeline did the work the test is about: all four queues carried
  // traffic and TCN marked some of it.
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(port.queue_counters(q).tx_packets, 5'000u);
  }
  EXPECT_GT(port.counters().marks, 0u);
}

/// A stream buffer that discards what it is given and allocates nothing.
class DiscardBuf final : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
};

TEST(HotPath, TraceWriterFormatsEachRecordWithoutAllocating) {
  DiscardBuf discard;
  std::ostream out(&discard);
  obs::JsonlTraceWriter writer(out);
  net::TraceRecord rec;
  rec.event = net::TraceEvent::kDequeue;
  rec.port = "a-port-name-past-the-short-string-buffer";
  rec.t = 600 * sim::kSecond;
  rec.flow = std::numeric_limits<std::uint64_t>::max();
  rec.seq = std::numeric_limits<std::uint64_t>::max();
  rec.size = 1500;
  rec.queue_bytes = 300'000;
  rec.port_bytes = 300'000;
  rec.sojourn = sim::kSecond;
  writer.on_event(rec);  // warmup: the line grows to the longest record

  const std::uint64_t allocs_before = allocs();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    rec.seq = i;
    rec.queue = i % 8;
    rec.t += sim::kMicrosecond;
    writer.on_event(rec);
  }
  EXPECT_EQ(allocs() - allocs_before, 0u);
  EXPECT_EQ(writer.records_written(), 1001u);
}

// -------------------------------------------------------------- sim::Fifo ----

TEST(Fifo, MatchesDequeOverRandomPushPopStreams) {
  // The push share swings between 0.65 and 0.35 every 1000 steps, so rings
  // grow, drain and grow again from wherever their head has got to.
  std::uint64_t wrapped_growths = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    sim::Fifo<std::uint64_t> ring;
    std::deque<std::uint64_t> ref;
    // The ring's head moves one slot per pop and returns to 0 on growth.
    std::uint64_t pops_since_growth = 0;
    for (int step = 0; step < 20'000; ++step) {
      const double push_share = (step / 1000) % 2 == 0 ? 0.65 : 0.35;
      if (ref.empty() || rng.uniform() < push_share) {
        const std::uint64_t v = rng.uniform_int(0, UINT64_MAX);
        if (ring.size() == ring.capacity()) {
          if (ring.capacity() != 0 &&
              pops_since_growth % ring.capacity() != 0) {
            ++wrapped_growths;
          }
          pops_since_growth = 0;
        }
        ring.push_back(v);
        ref.push_back(v);
      } else {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
        ++pops_since_growth;
      }
      ASSERT_EQ(ring.size(), ref.size());
      ASSERT_EQ(ring.empty(), ref.empty());
      if (step % 97 == 0) {
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(ring[i], ref[i]) << "seed " << seed << " step " << step;
        }
      }
    }
  }
  EXPECT_GT(wrapped_growths, 0u);
}

TEST(Fifo, GrowsWhileWrappedInOrder) {
  sim::Fifo<int> ring;
  const std::size_t cap = sim::Fifo<int>::kFirstCapacity;
  int next_in = 0;
  int next_out = 0;
  for (std::size_t i = 0; i < cap; ++i) ring.push_back(next_in++);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  for (int i = 0; i < 3; ++i) ring.push_back(next_in++);  // wraps, full
  ASSERT_EQ(ring.capacity(), cap);
  ring.push_back(next_in++);  // grows with the head mid-array
  EXPECT_EQ(ring.capacity(), 2 * cap);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], next_out + static_cast<int>(i));
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.front(), next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, PacketsGoBackToTheirPoolOnPopAndOnDestruction) {
  net::PacketUidScope uids;
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  std::deque<std::uint64_t> uids_in;
  {
    sim::Fifo<net::PacketPtr> ring;
    auto push = [&] {
      auto p = net::make_packet();
      uids_in.push_back(p->uid);
      ring.push_back(std::move(p));
    };
    for (int i = 0; i < 100; ++i) push();
    EXPECT_EQ(pool.live(), 100u);
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(ring.front()->uid, uids_in.front());
      uids_in.pop_front();
      ring.pop_front();
    }
    EXPECT_EQ(pool.live(), 60u);
    for (int i = 0; i < 100; ++i) push();  // wraps, then grows
    EXPECT_EQ(pool.live(), 160u);

    sim::Fifo<net::PacketPtr> moved = std::move(ring);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 0u);
    ASSERT_EQ(moved.size(), 160u);
    for (std::size_t i = 0; i < moved.size(); ++i) {
      ASSERT_EQ(moved[i]->uid, uids_in[i]);
    }
  }
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.recycles(), 200u);
}

TEST(Fifo, IdleRingsAllocateNothing) {
  std::uint64_t before = allocs();
  {
    sim::Fifo<net::PacketPtr> ring;
    sim::Fifo<net::PacketPtr> other(std::move(ring));
  }
  EXPECT_EQ(allocs() - before, 0u);

  before = allocs();
  {
    // One allocation, the vector's own array; none per ring or per queue.
    std::vector<sim::Fifo<std::uint64_t>> rings(64);
  }
  EXPECT_EQ(allocs() - before, 1u);
  before = allocs();
  { std::vector<net::PacketQueue> queues(64); }
  EXPECT_EQ(allocs() - before, 1u);

  // A ring allocates on its first push and on each doubling, then never
  // again at or below that depth.
  sim::Fifo<std::uint64_t> ring;
  before = allocs();
  ring.push_back(1);
  EXPECT_EQ(allocs() - before, 1u);
  for (std::uint64_t i = 0; i < 200; ++i) ring.push_back(i);
  before = allocs();
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ring.pop_front();
    ring.push_back(i);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(Fifo, PushPastTheLimitThrowsLengthError) {
  sim::Fifo<int> ring;
  sim::FifoTestPeer::set_size(ring, UINT32_MAX);
  EXPECT_THROW(ring.push_back(1), std::length_error);
  sim::FifoTestPeer::set_size(ring, 0);
  EXPECT_EQ(ring.capacity(), 0u);
}

TEST(FifoDeathTest, EmptyRingAccessAborts) {
  if (!sim::kFifoChecks) {
    GTEST_SKIP() << "checks are compiled in only without NDEBUG or with "
                    "_GLIBCXX_ASSERTIONS";
  }
  sim::Fifo<int> ring;
  EXPECT_DEATH((void)ring.front(), "front\\(\\) on an empty ring");
  EXPECT_DEATH(ring.pop_front(), "pop_front\\(\\) on an empty ring");
  ring.push_back(7);
  ring.pop_front();
  EXPECT_DEATH((void)ring.front(), "front\\(\\) on an empty ring");
  EXPECT_DEATH((void)ring[0], "operator\\[\\] past size\\(\\)");
}

// --------------------------------------------------------- InlineCallback ----

TEST(InlineCallback, CarriesMoveOnlyCaptures) {
  // The capability std::function never had: a unique_ptr rides directly in
  // the event capture, and an event that never fires releases it cleanly.
  sim::Simulator s;
  auto payload = std::make_unique<int>(41);
  int result = 0;
  s.schedule_at(5, [p = std::move(payload), &result] { result = *p + 1; });
  s.run();
  EXPECT_EQ(result, 42);
}

TEST(InlineCallback, UnfiredEventReleasesCapture) {
  net::PacketPool pool;
  net::PacketPool::Scope scope(pool);
  {
    sim::Simulator s;
    auto p = net::make_packet();
    s.schedule_at(10, [pkt = std::move(p)]() mutable {});
    // Simulator destroyed without running: the pending event's packet must
    // recycle, not leak.
  }
  EXPECT_EQ(pool.recycles(), 1u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  sim::InlineCallback a;
  EXPECT_FALSE(static_cast<bool>(a));
  int hits = 0;
  a = sim::InlineCallback([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(a));
  sim::InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, CompileTimeBudget) {
  // The inline budget itself is part of the contract: a {this, index,
  // PacketPtr} forwarding capture must fit with room to spare.
  struct HotCapture {
    void* self;
    std::size_t q;
    net::PacketPtr pkt;
  };
  static_assert(sizeof(HotCapture) <= sim::InlineCallback::kInlineBytes);
  static_assert(sizeof(sim::InlineCallback) <=
                sim::InlineCallback::kInlineBytes + 2 * sizeof(void*));
}

}  // namespace
}  // namespace tcn
