// Equivalence and unit tests for the pending-event containers.
//
// The load-bearing property: BinaryHeapQueue and CalendarQueue implement the
// SAME total order (at, seq), so the simulator's event order -- and with it
// every golden trace, journal, and jobs=1-vs-N sweep -- cannot depend on
// which container is plugged in. The randomized tests feed both identical
// schedule/cancel streams (same-timestamp bursts, far-future RTO-like
// timers, interleaved pops) and assert bit-identical pop sequences.
//
// This binary overrides global operator new/delete with counting wrappers
// (the tests/packet_pool_test.cpp pattern) so the calendar's storage bound
// -- memory follows the pending set, steady state allocates nothing -- is
// asserted directly.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <tuple>
#include <unordered_set>
#include <vector>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// Same -Wmismatched-new-delete misfire as in packet_pool_test.cpp: the
// replacement operator new above allocates with malloc, so free() matches.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace tcn::sim {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

std::vector<EventEntry> drain(BinaryHeapQueue& q) {
  std::vector<EventEntry> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

std::vector<EventEntry> drain(CalendarQueue& q) {
  std::vector<EventEntry> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

bool same_entry(const EventEntry& a, const EventEntry& b) {
  return a.at == b.at && a.seq == b.seq && a.slot == b.slot && a.gen == b.gen;
}

/// The reference heap and a calendar fed identical entries.
struct Twin {
  BinaryHeapQueue heap;
  CalendarQueue cal;
  std::uint64_t seq = 1;

  void push(Time at) {
    const EventEntry e{at, seq, static_cast<std::uint32_t>(seq), 0};
    ++seq;
    heap.push(e);
    cal.push(e);
  }
  /// Pops both; true iff they surfaced the same entry.
  bool pop_agrees() { return same_entry(heap.pop(), cal.pop()); }
  /// Drains both; true iff every pop agreed and both ended empty.
  bool drain_agrees() {
    while (!heap.empty()) {
      if (cal.empty() || !pop_agrees()) return false;
    }
    return cal.empty();
  }
};

TEST(EventQueue, BothOrderSameTimestampBurstsBySeq) {
  BinaryHeapQueue heap;
  CalendarQueue cal;
  // Three bursts at identical timestamps, scheduled out of time order.
  std::uint64_t seq = 1;
  for (const Time at : {50, 10, 50, 10, 30, 30, 50, 10}) {
    const EventEntry e{at, seq, static_cast<std::uint32_t>(seq), 0};
    ++seq;
    heap.push(e);
    cal.push(e);
  }
  const auto h = drain(heap);
  const auto c = drain(cal);
  ASSERT_EQ(h.size(), c.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(same_entry(h[i], c[i])) << "index " << i;
  }
  // FIFO within a timestamp: seq strictly increases inside each time group.
  for (std::size_t i = 1; i < h.size(); ++i) {
    ASSERT_LE(h[i - 1].at, h[i].at);
    if (h[i - 1].at == h[i].at) ASSERT_LT(h[i - 1].seq, h[i].seq);
  }
}

// The randomized stream mimics what a simulator produces: mostly
// near-future events at a moving clock, same-timestamp bursts (a switch
// fanning out at one instant), rare far-future timers (RTO, diurnal ramps),
// interleaved pops that advance the clock, and cancellations modelled
// exactly as the Simulator does -- a dead (slot, gen) set whose entries
// both containers must surface in the same places (the simulator discards
// them on pop, so "identical pop order" must hold tombstones included).
TEST(EventQueue, RandomizedEquivalenceWithHeap) {
  std::mt19937_64 rng(0xC0FFEE);
  BinaryHeapQueue heap;
  CalendarQueue cal;

  Time clock = 0;
  std::uint64_t seq = 1;
  std::uint32_t next_slot = 0;
  std::unordered_set<std::uint64_t> dead;  // (slot<<1)|gen of cancelled
  std::vector<EventEntry> pending;         // sampling base for cancels
  std::vector<EventEntry> heap_pops;
  std::vector<EventEntry> cal_pops;

  const auto push_both = [&](Time at) {
    const EventEntry e{at, seq++, next_slot++, 0};
    heap.push(e);
    cal.push(e);
    pending.push_back(e);
  };

  for (int step = 0; step < 200'000; ++step) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {  // near-future push (serialization/propagation scale)
        push_both(clock + static_cast<Time>(rng() % 10'000));
        break;
      }
      case 3: {  // same-timestamp burst (fan-out at one instant)
        const Time at = clock + static_cast<Time>(rng() % 1'000);
        const std::size_t burst = 2 + rng() % 6;
        for (std::size_t i = 0; i < burst; ++i) push_both(at);
        break;
      }
      case 4: {  // far-future timer (RTO / diurnal, way past the horizon)
        push_both(clock + 10'000'000 + static_cast<Time>(rng() % kSecond));
        break;
      }
      case 5: {  // cancel a random not-yet-popped event (simulator-style)
        if (!pending.empty()) {
          const EventEntry& victim = pending[rng() % pending.size()];
          dead.insert((std::uint64_t{victim.slot} << 1) | victim.gen);
        }
        break;
      }
      default: {  // pop a few and advance the clock
        for (int i = 0; i < 3 && !heap.empty(); ++i) {
          ASSERT_FALSE(cal.empty());
          const EventEntry h = heap.pop();
          const EventEntry c = cal.pop();
          ASSERT_TRUE(same_entry(h, c))
              << "step " << step << ": heap (" << h.at << "," << h.seq
              << ") vs calendar (" << c.at << "," << c.seq << ")";
          // Tombstones surface in both queues at the same position but, as
          // in the simulator, do not advance the clock.
          if (!dead.contains((std::uint64_t{h.slot} << 1) | h.gen)) {
            clock = h.at;
          }
        }
        break;
      }
    }
    ASSERT_EQ(heap.size(), cal.size());
  }

  // Drain both completely: the tails must match too.
  while (!heap.empty()) {
    ASSERT_FALSE(cal.empty());
    const EventEntry h = heap.pop();
    const EventEntry c = cal.pop();
    ASSERT_TRUE(same_entry(h, c));
  }
  EXPECT_TRUE(cal.empty());
}

// The same differential check at a pending set of thousands: fill phases
// grow it to ~10,000 entries, so the ring reaches 16K buckets (a 256-word
// occupancy bitmap); drain phases thin it to a few dozen entries spread
// over the whole horizon, so the dial jumps across runs of empty bitmap
// words and wraps past the ring's last bucket. Far-future timers park in
// the overflow rung and migrate on those jumps; cancellations surface as
// tombstones in both containers at the same positions, and occasional
// pushes at or behind the settled dial force sorted inserts and rewinds.
TEST(EventQueue, LargeRandomizedEquivalenceWithHeap) {
  std::mt19937_64 rng(0x5EED5);
  BinaryHeapQueue heap;
  CalendarQueue cal;

  Time clock = 0;
  std::uint64_t seq = 1;
  std::uint32_t next_slot = 0;
  std::unordered_set<std::uint64_t> dead;
  std::vector<EventEntry> pushed;
  std::size_t max_overflow = 0;

  const auto push_both = [&](Time at) {
    const EventEntry e{at, seq++, next_slot++, 0};
    heap.push(e);
    cal.push(e);
    pushed.push_back(e);
  };

  for (int phase = 0; phase < 10; ++phase) {
    const bool fill = phase % 2 == 0;
    const std::size_t target = fill ? 10'000 : 40;
    for (std::uint64_t step = 0;
         fill ? cal.size() < target : cal.size() > target; ++step) {
      const std::uint64_t op = rng() % 10;
      if (op < 4) {  // near future, spread over about one ring horizon
        push_both(clock + static_cast<Time>(rng() % 1'000'000));
      } else if (op == 4) {  // same-timestamp burst
        const Time at = clock + static_cast<Time>(rng() % 1'000'000);
        for (std::uint64_t i = 2 + rng() % 7; i > 0; --i) push_both(at);
      } else if (op == 5) {
        if (rng() % 4 == 0) {  // far-future timer, past the horizon
          push_both(clock + 50'000'000 + static_cast<Time>(rng() % kSecond));
        }
      } else if (op == 6) {  // cancel (a no-op if it already fired)
        const EventEntry& victim = pushed[rng() % pushed.size()];
        dead.insert((std::uint64_t{victim.slot} << 1) | victim.gen);
      } else if (op == 7 && rng() % 16 == 0 && !heap.empty()) {
        // Between the clock and the settled top: into the dial bucket or
        // behind it (a rewind), as after run(until) returns.
        const Time top = heap.peek()->at;
        ASSERT_EQ(cal.peek()->at, top);
        const auto span = static_cast<std::uint64_t>(top - clock + 1);
        push_both(clock + static_cast<Time>(rng() % span));
      } else {
        for (int i = fill ? 1 : 40; i > 0 && !heap.empty(); --i) {
          ASSERT_FALSE(cal.empty());
          const EventEntry h = heap.pop();
          const EventEntry c = cal.pop();
          ASSERT_TRUE(same_entry(h, c))
              << "phase " << phase << " step " << step << ": heap (" << h.at
              << "," << h.seq << ") vs calendar (" << c.at << "," << c.seq
              << ")";
          if (!dead.contains((std::uint64_t{h.slot} << 1) | h.gen)) {
            clock = h.at;
          }
        }
      }
      ASSERT_EQ(heap.size(), cal.size());
      max_overflow = std::max(max_overflow, cal.overflow_size());
    }
  }
  EXPECT_GE(cal.num_buckets(), 8192u);
  EXPECT_GT(max_overflow, 0u);
  EXPECT_GT(cal.resizes(), 3u);  // rewinds rebuilt beyond the growth steps

  while (!heap.empty()) {
    ASSERT_FALSE(cal.empty());
    ASSERT_TRUE(same_entry(heap.pop(), cal.pop()));
  }
  EXPECT_TRUE(cal.empty());
}

TEST(CalendarQueue, ResizesWhenPopulationOutgrowsRing) {
  CalendarQueue q;
  EXPECT_EQ(q.num_buckets(), CalendarQueue::kMinBuckets);
  // Dense near-future population far beyond 2x the initial 64 buckets.
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    q.push(EventEntry{static_cast<Time>(i * 100), i + 1, 0, 0});
  }
  EXPECT_GT(q.resizes(), 0u);
  EXPECT_GT(q.num_buckets(), CalendarQueue::kMinBuckets);
  // Still pops in exact order.
  Time prev = -1;
  while (!q.empty()) {
    const EventEntry e = q.pop();
    ASSERT_GE(e.at, prev);
    prev = e.at;
  }
}

TEST(CalendarQueue, RingOnlyGrowsAcrossDrainRefillCycles) {
  CalendarQueue q;
  std::uint64_t seq = 1;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (std::uint64_t i = 0; i < 1'000; ++i) {
      q.push(EventEntry{static_cast<Time>(i * 64), seq++, 0, 0});
    }
    while (!q.empty()) q.pop();
  }
  // All growth happened in the first cycle; later cycles reuse the plateau.
  const std::uint64_t after_first = q.resizes();
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    q.push(EventEntry{static_cast<Time>(i * 64), seq++, 0, 0});
  }
  EXPECT_EQ(q.resizes(), after_first);
}

TEST(CalendarQueue, FarFutureEntriesParkInOverflowThenMigrate) {
  CalendarQueue q;
  // One near event and a batch a full day past the default horizon.
  q.push(EventEntry{10, 1, 0, 0});
  for (std::uint64_t i = 0; i < 16; ++i) {
    q.push(EventEntry{static_cast<Time>(kSecond + i), 2 + i, 0, 0});
  }
  EXPECT_GT(q.overflow_size(), 0u);
  EXPECT_EQ(q.pop().at, 10);
  // Popping across the gap jumps the dial and migrates the far batch.
  Time prev = -1;
  std::size_t n = 0;
  while (!q.empty()) {
    const EventEntry e = q.pop();
    ASSERT_GE(e.at, prev);
    prev = e.at;
    ++n;
  }
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(q.overflow_size(), 0u);
}

TEST(CalendarQueue, PushBehindSettledDialRewinds) {
  CalendarQueue q;
  q.push(EventEntry{1'000'000, 1, 0, 0});
  ASSERT_EQ(q.peek()->at, 1'000'000);  // dial settled far ahead
  // Earlier event arrives (run(until) returned, caller scheduled before the
  // survivor): the queue must rewind, not misfile it.
  q.push(EventEntry{5, 2, 0, 0});
  EXPECT_EQ(q.pop().at, 5);
  EXPECT_EQ(q.pop().at, 1'000'000);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EmptyQueueRebasesDialCheaply) {
  CalendarQueue q;
  q.push(EventEntry{kSecond, 1, 0, 0});
  EXPECT_EQ(q.pop().at, kSecond);
  const std::uint64_t resizes = q.resizes();
  // Re-basing on an empty queue is O(1), never a rebuild -- even jumping
  // backward in time.
  q.push(EventEntry{7, 2, 0, 0});
  EXPECT_EQ(q.resizes(), resizes);
  EXPECT_EQ(q.pop().at, 7);
}

// Memory follows the pending set, not the ring's history: bursts of 300
// entries at one timestamp walk one bucket width per round for two full
// ring rotations, and each burst is popped before the next. After its first
// burst each phase reuses storage the queue already holds, so no later
// round allocates. In the first phase the queue empties between bursts, so
// every burst re-bases the dial and drains from the dial array; in the
// second a far-future sentinel keeps it non-empty, so every burst lands in
// a bucket list one past the settled dial.
TEST(CalendarQueue, StorageIsBoundedByThePendingSet) {
  constexpr std::uint64_t kBurst = 300;
  CalendarQueue q;
  std::uint64_t seq = 1;
  const auto round = [&](Time at) {
    for (std::uint64_t i = 0; i < kBurst; ++i) q.push({at, seq++, 0, 0});
    for (std::uint64_t i = 0; i < kBurst; ++i) ASSERT_EQ(q.pop().at, at);
  };
  const Time width = Time{1} << q.shift();

  round(0);  // grows the ring once (300 > 2 x 64 buckets)
  const auto rounds = static_cast<Time>(2 * q.num_buckets());
  std::uint64_t before = allocs();
  for (Time k = 1; k <= rounds; ++k) round(k * width);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_TRUE(q.empty());

  Time at = (rounds + 1) * width;
  q.push({at, seq++, 0, 0});       // anchors the dial
  q.push({kSecond, seq++, 0, 0});  // far-future sentinel
  ASSERT_EQ(q.pop().at, at);
  round(at += width);
  before = allocs();
  for (Time k = 1; k <= rounds; ++k) round(at += width);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(q.pop().at, kSecond);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.resizes(), 1u);
}

// The sizing policy is part of the output: calendar_resizes is a reported
// and journaled run counter, and the bucket count and width decide what
// overflows. This pins (resizes, buckets, shift, overflow size) after each
// phase of one fixed stream -- dense growth, a hold with far-future timers,
// sparse growth, a rewind behind a settled dial, and a re-based refill --
// to the values the per-bucket-vector calendar produced.
TEST(CalendarQueue, SizingPolicyIsPinned) {
  std::mt19937_64 rng(0xCA1E);
  CalendarQueue q;
  Time clock = 0;
  std::uint64_t seq = 1;
  using Shape = std::tuple<std::uint64_t, std::size_t, int, std::size_t>;
  std::vector<Shape> got;
  const auto snap = [&] {
    got.emplace_back(q.resizes(), q.num_buckets(), q.shift(),
                     q.overflow_size());
  };
  const auto push = [&](Time at) { q.push({at, seq++, 0, 0}); };
  const auto pop = [&] { clock = q.pop().at; };

  // Dense growth: 3,000 entries about 100 ns apart.
  for (int i = 0; i < 3'000; ++i) {
    push(clock + i * 100 + static_cast<Time>(rng() % 100));
  }
  snap();
  // Hold at ~3,000 with a far-future timer every 50 pops.
  for (int i = 0; i < 20'000; ++i) {
    pop();
    push(clock + static_cast<Time>(rng() % 300'000));
    if (i % 50 == 0) {
      push(clock + 20'000'000 + static_cast<Time>(rng() % kSecond));
    }
  }
  snap();
  // Sparse growth to ~12,000 entries about 2 us apart.
  for (int i = 0; i < 9'000; ++i) {
    push(clock + static_cast<Time>(rng() % 24'000'000));
    if (i % 3 == 0) pop();
  }
  snap();
  // Drain to 100 entries, then push behind the settled dial: a rewind.
  while (q.size() > 100) pop();
  ASSERT_NE(q.peek(), nullptr);
  push(clock - (Time{4} << q.shift()));
  snap();
  // Drain completely, re-base far ahead, refill with 10 ns bursts.
  while (!q.empty()) pop();
  clock += kSecond;
  for (int i = 0; i < 30'000; ++i) {
    const Time at = clock + static_cast<Time>(i / 4) * 10;
    push(at);
    if (i % 2 == 0) pop();
  }
  snap();

  const std::vector<Shape> want = {
      {1, 512, 7, 2345},  {2, 4096, 6, 455}, {2, 4096, 6, 9220},
      {3, 4096, 6, 100},  {4, 32768, 3, 0},
  };
  EXPECT_EQ(got, want);
}

// A push into the dial bucket while its entries are being drained must land
// at its exact sorted position: ahead of later entries, behind earlier
// ones, after equal-time entries with smaller seq -- including a push
// earlier than the current top and one after the bucket momentarily empties.
TEST(CalendarQueue, PushIntoSettledDialBucketKeepsExactOrder) {
  Twin q;
  const Time width = Time{1} << q.cal.shift();
  for (const Time at : {width + 100, width + 500, width + 500, width + 900}) {
    q.push(at);
  }
  q.push(3 * width);  // a later bucket keeps the queue non-empty
  ASSERT_EQ(q.cal.peek()->at, width + 100);  // dial settled on bucket 1
  ASSERT_TRUE(q.pop_agrees());
  for (const Time at : {width + 500, width, 2 * width - 1, width + 900,
                        width + 200}) {
    q.push(at);
  }
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.pop_agrees());
  // The dial bucket is now empty but still under the dial.
  q.push(width + 700);
  q.push(width + 600);
  EXPECT_TRUE(q.drain_agrees());
  EXPECT_EQ(q.cal.resizes(), 0u);
}

// A push behind a dial whose bucket still holds entries rewinds with one
// rebuild and loses none of the settled entries.
TEST(CalendarQueue, PushBehindSettledDialWithPendingEntriesRewinds) {
  Twin q;
  const Time width = Time{1} << q.cal.shift();
  for (const Time at : {10 * width + 1, 10 * width + 2, 10 * width + 3,
                        12 * width, 500 * width}) {
    q.push(at);
  }
  ASSERT_TRUE(q.pop_agrees());  // dial settled on bucket 10
  q.push(3 * width);
  EXPECT_EQ(q.cal.resizes(), 1u);
  q.push(10 * width);  // the old dial bucket, now ahead of the dial
  q.push(2 * width);   // and a second rewind
  EXPECT_EQ(q.cal.resizes(), 2u);
  EXPECT_TRUE(q.drain_agrees());
}

// Sparse entries on a large ring: from a dial five buckets before the
// ring's end, the queue must find the next event across whole empty bitmap
// words, wrap from the last bucket to the first, and migrate the overflow
// entries each jump brings inside the horizon.
TEST(CalendarQueue, DialJumpsAcrossEmptyWordsAndWraps) {
  Twin q;
  // Grow the ring, then drain it (it keeps its size).
  for (int i = 0; i < 5'000; ++i) q.push((i * 7919) % 100'000);
  ASSERT_TRUE(q.drain_agrees());
  const auto n = static_cast<Time>(q.cal.num_buckets());
  const Time width = Time{1} << q.cal.shift();
  ASSERT_GE(n, 4096);

  const Time base = (10 * n + n - 5) * width;  // physical bucket n - 5
  for (const Time vb : {Time{0}, Time{3}, Time{20}, Time{700}, n - 1,
                        n + 10, 2 * n + 5, 2 * n + 6, 3 * n}) {
    q.push(base + vb * width + 1);
  }
  EXPECT_GT(q.cal.overflow_size(), 0u);
  EXPECT_TRUE(q.drain_agrees());
  EXPECT_EQ(q.cal.overflow_size(), 0u);
}

}  // namespace
}  // namespace tcn::sim
