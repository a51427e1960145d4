// FlowSlab memory-model tests.
//
// Like packet_pool_test, this binary overrides global operator new/delete
// with counting wrappers -- here counting frees too -- so the open-loop
// memory claim is asserted directly: steady-state flow churn through the
// slab keeps the number of *live* heap allocations flat. Per-flow gross
// allocations still happen (TcpSender/TcpSink own message rings, maps and
// callbacks), but every one is returned at recycle, so lifetime flow count
// never shows up in the heap footprint -- only peak concurrency does.
// The override is per-binary, which is why these tests live in their own
// test target.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "traffic/flow_slab.hpp"
#include "transport/tcp.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// See packet_pool_test.cpp: GCC's -Wmismatched-new-delete heuristic
// misfires on replacement deallocation functions; the malloc/free pair here
// does match the replacement operator new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#pragma GCC diagnostic pop

namespace tcn {
namespace {

/// Heap allocations currently live (allocated and not yet freed).
std::int64_t live_allocs() {
  return static_cast<std::int64_t>(g_allocs.load(std::memory_order_relaxed)) -
         static_cast<std::int64_t>(g_frees.load(std::memory_order_relaxed));
}

// ------------------------------------------------------------ slab basics ----

TEST(FlowSlab, AcquireRecycleReuseCounters) {
  traffic::FlowSlab slab;
  const auto a = slab.acquire();
  const auto b = slab.acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(slab.fresh_allocs(), 2u);
  EXPECT_EQ(slab.live(), 2u);
  EXPECT_EQ(slab.slots(), 2u);

  slab.recycle(a);
  EXPECT_EQ(slab.recycles(), 1u);
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.free_size(), 1u);

  // The recycled slot comes back (LIFO) before any fresh growth.
  const auto c = slab.acquire();
  EXPECT_EQ(c, a);
  EXPECT_EQ(slab.reuses(), 1u);
  EXPECT_EQ(slab.fresh_allocs(), 2u);
  EXPECT_EQ(slab.slots(), 2u);
}

TEST(FlowSlab, LifoReuseOrder) {
  traffic::FlowSlab slab;
  const auto a = slab.acquire();
  const auto b = slab.acquire();
  slab.recycle(a);
  slab.recycle(b);
  // Most recently recycled first: cache-warm reuse order.
  EXPECT_EQ(slab.acquire(), b);
  EXPECT_EQ(slab.acquire(), a);
}

TEST(FlowSlab, RecycleClearsSlotState) {
  sim::Simulator s;
  net::PortConfig nic;
  net::Host src(s, "h0", 1, nic);
  net::Host dst(s, "h1", 2, nic);
  traffic::FlowSlab slab;
  transport::TcpConfig tcp;

  const auto idx = slab.acquire();
  auto& slot = slab.at(idx);
  slot.flow_id = 42;
  slot.size = 1000;
  slot.service = 3;
  slot.src_addr = src.address();
  slot.dst_addr = dst.address();
  slot.sport = slab.checkout_port(src);
  slot.dport = slab.checkout_port(dst);
  slot.sink.emplace(dst, slot.dport, 0);
  slot.sender.emplace(src, dst.address(), slot.sport, slot.dport, 42, tcp,
                      transport::constant_dscp(0), 0);
  slab.recycle(idx);

  const auto again = slab.acquire();
  ASSERT_EQ(again, idx);
  const auto& clean = slab.at(again);
  EXPECT_FALSE(clean.sender.has_value());
  EXPECT_FALSE(clean.sink.has_value());
  EXPECT_EQ(clean.flow_id, 0u);
  EXPECT_EQ(clean.size, 0u);
  EXPECT_EQ(clean.service, 0u);
  EXPECT_EQ(clean.sport, 0u);
  EXPECT_EQ(clean.dport, 0u);
}

TEST(FlowSlab, DoubleRecycleIsDetectedAndDropped) {
  traffic::FlowSlab slab;
  const auto a = slab.acquire();
  slab.recycle(a);
  ASSERT_EQ(slab.free_size(), 1u);
  // Misuse: recycling a slot already on the free list must not
  // double-insert (which would hand the same slot to two flows later).
  slab.recycle(a);
  EXPECT_EQ(slab.double_recycles(), 1u);
  EXPECT_EQ(slab.recycles(), 1u);
  EXPECT_EQ(slab.free_size(), 1u);
  EXPECT_EQ(slab.acquire(), a);  // still functional
}

TEST(FlowSlab, PortsRecycleThroughPerHostFreeLists) {
  sim::Simulator s;
  net::PortConfig nic;
  net::Host h(s, "h0", 1, nic);
  traffic::FlowSlab slab;

  const auto idx = slab.acquire();
  auto& slot = slab.at(idx);
  slot.src_addr = h.address();
  const std::uint16_t port = slab.checkout_port(h);
  slot.sport = port;
  slab.recycle(idx);

  // The same port number comes back instead of bumping the host's counter,
  // so a host's port footprint is bounded by peak concurrency -- not by the
  // lifetime flow count (Host::allocate_port runs out after 64,512).
  EXPECT_EQ(slab.checkout_port(h), port);
  // A different host draws from its own pool.
  net::Host other(s, "h1", 2, nic);
  EXPECT_NE(slab.checkout_port(other), 0u);
}

TEST(FlowSlab, ScopesNestAndRestore) {
  EXPECT_EQ(traffic::FlowSlab::current(), nullptr);
  traffic::FlowSlab outer;
  traffic::FlowSlab::Scope outer_scope(outer);
  EXPECT_EQ(traffic::FlowSlab::current(), &outer);
  {
    traffic::FlowSlab inner;
    traffic::FlowSlab::Scope inner_scope(inner);
    EXPECT_EQ(traffic::FlowSlab::current(), &inner);
  }
  EXPECT_EQ(traffic::FlowSlab::current(), &outer);
}

// ------------------------------------------------- bounded-heap-growth proof ----

TEST(FlowSlab, SteadyStateChurnKeepsLiveHeapFlat) {
  // The open-loop acceptance claim, asserted on the allocator itself: churn
  // whole flows (TcpSink + TcpSender constructed into slab slots, then
  // recycled) and after warmup the number of live heap allocations is
  // *identical* at every batch boundary. Gross allocation traffic per flow
  // is nonzero by design -- the TCP objects own real state -- but all of it
  // returns at recycle, so lifetime flow count never accumulates in the
  // heap. This is the counting-allocator equivalent of "10M flows in
  // bounded memory".
  sim::Simulator s;
  net::PortConfig nic;
  net::Host src(s, "h0", 1, nic);
  net::Host dst(s, "h1", 2, nic);
  traffic::FlowSlab slab;
  traffic::FlowSlab::Scope scope(slab);
  transport::TcpConfig tcp;

  constexpr int kInFlight = 16;
  constexpr int kBatches = 8;
  std::vector<std::uint32_t> held;
  held.reserve(kInFlight);

  std::uint64_t flow_id = 0;
  auto churn_batch = [&] {
    for (int j = 0; j < kInFlight; ++j) {
      const auto idx = slab.acquire();
      auto& slot = slab.at(idx);
      slot.flow_id = ++flow_id;
      slot.size = 10'000;
      slot.src_addr = src.address();
      slot.dst_addr = dst.address();
      slot.sport = slab.checkout_port(src);
      slot.dport = slab.checkout_port(dst);
      slot.sink.emplace(dst, slot.dport, 0);
      slot.sender.emplace(src, dst.address(), slot.sport, slot.dport,
                          slot.flow_id, tcp, transport::constant_dscp(0), 0);
      held.push_back(idx);
    }
    for (const auto idx : held) slab.recycle(idx);
    held.clear();
  };

  // Warmup: slab growth, port free-list growth, hash-map rehash, vector
  // capacity -- all one-time costs.
  churn_batch();
  churn_batch();

  const std::int64_t baseline = live_allocs();
  for (int b = 0; b < kBatches; ++b) {
    churn_batch();
    EXPECT_EQ(live_allocs(), baseline) << "batch " << b;
  }

  // Slab-side view agrees: the working set stayed at peak concurrency while
  // lifetime flows kept climbing.
  EXPECT_EQ(slab.slots(), static_cast<std::size_t>(kInFlight));
  EXPECT_EQ(slab.fresh_allocs(), static_cast<std::uint64_t>(kInFlight));
  EXPECT_EQ(slab.reuses() + slab.fresh_allocs(),
            static_cast<std::uint64_t>(kInFlight * (kBatches + 2)));
  EXPECT_EQ(slab.live(), 0u);
}

}  // namespace
}  // namespace tcn
