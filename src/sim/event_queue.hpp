// Pending-event containers for the discrete-event core.
//
// Two implementations of one (non-virtual) contract -- push / peek / pop of
// 24-byte POD entries in strict (time, seq) order:
//
//   BinaryHeapQueue  the PR-3 binary min-heap. O(log n) push/pop, fully
//                    general. Retained as the reference implementation for
//                    the randomized equivalence test and as the in-binary
//                    baseline bench/micro_core measures the calendar queue
//                    against.
//
//   CalendarQueue    a calendar queue (Brown 1988) with a sorted overflow
//                    rung for far-future timers. The event population of a
//                    NIC-rate simulator is heavily skewed toward the near
//                    future (serialization completions, propagation
//                    arrivals, pacing ticks) with a thin far tail (RTOs,
//                    diurnal traffic ramps): the calendar exploits that with
//                    O(1) amortized push (bucket index = time >> shift) and
//                    pops that drain one small sorted bucket at a time.
//
// Pop order is the SAME total order for both -- (at, seq), seq being the
// monotone insertion sequence -- so swapping the simulator's queue cannot
// change any run's event order: every golden trace, journal and jobs=1-vs-N
// sweep aggregate stays byte-identical. The equivalence test drives both
// with identical schedule/cancel streams and asserts identical pop
// sequences.
//
// Neither container knows about cancellation: the Simulator tombstones a
// cancelled event's slot generation and discards dead entries when popped,
// so cancel stays O(1) and the queues stay pure POD containers.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace tcn::sim {

/// POD pending-event record. The callback lives in the owning Simulator's
/// slot pool; (slot, gen) is the tombstone ticket, (at, seq) the pop order.
/// Keeping the entry trivially copyable is what makes queue restructuring
/// (heap sifts, calendar rebuilds) cheap.
struct EventEntry {
  Time at;
  std::uint64_t seq;   ///< insertion sequence: FIFO tiebreak at equal times
  std::uint32_t slot;  ///< callback slot index in the Simulator's pool
  std::uint32_t gen;   ///< slot generation the entry was issued against
};
static_assert(sizeof(EventEntry) == 24);
static_assert(std::is_trivially_copyable_v<EventEntry>);

/// True when a fires strictly before b. Total order: ties in `at` resolve
/// by insertion sequence, so same-timestamp events fire in scheduling order.
[[nodiscard]] inline bool entry_before(const EventEntry& a,
                                       const EventEntry& b) noexcept {
  return a.at < b.at || (a.at == b.at && a.seq < b.seq);
}

/// Reference implementation: hand-rolled binary min-heap over entry_before.
class BinaryHeapQueue {
 public:
  void push(const EventEntry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  /// Earliest entry, or nullptr when empty. (Non-const to mirror
  /// CalendarQueue::peek, which settles internal state.)
  [[nodiscard]] const EventEntry* peek() noexcept {
    return heap_.empty() ? nullptr : &heap_.front();
  }

  /// Remove and return the earliest entry. Precondition: !empty().
  EventEntry pop() {
    const EventEntry top = heap_.front();
    if (heap_.size() > 1) {
      heap_.front() = heap_.back();
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return top;
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t resizes() const noexcept { return 0; }

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<EventEntry> heap_;
};

/// Calendar queue: a ring of `num_buckets` (power of two) time buckets of
/// width 2^shift nanoseconds, plus a min-heap overflow rung for entries
/// beyond the ring's one-"day" horizon.
///
/// Storage follows the pending set, not the ring's history. A bucket is a
/// 32-bit head index into one shared node pool (intrusive singly linked
/// lists, recycled through a free list), so an idle bucket costs 4 bytes
/// however many entries it once held. The bucket under the dial is drained
/// from `current_`, a separate array sorted descending so a pop is a
/// pop_back. One occupancy bit per bucket lets an empty dial jump straight
/// to the next non-empty bucket (countr_zero over 64-bit words, wrapping
/// around the ring) instead of stepping one bucket at a time.
///
/// Invariants:
///   - every bucketed entry has virtual bucket (at >> shift) in
///     [dial, dial + num_buckets) -- so each physical bucket holds entries
///     of exactly one virtual bucket and the first non-empty bucket at or
///     after the dial contains the global minimum;
///   - entries of the dial's virtual bucket live in `current_` (sorted
///     descending), never in the dial's list; entries of every other
///     bucketed virtual bucket live in its list, unsorted, and a bucket's
///     occupancy bit is set iff its list is non-empty;
///   - every overflow entry has virtual bucket >= dial + num_buckets, and
///     `overflow_top_vb_` is the virtual bucket of the overflow top
///     (UINT64_MAX when the rung is empty).
///
/// The dial moves only when `current_` runs dry, and then jumps to the next
/// occupied bucket D' in one step, migrating the overflow entries the new
/// horizon admits. Those have virtual buckets in [D + N, D' + N), so they
/// land in buckets the dial has just passed: the jump stops exactly where
/// stepping bucket by bucket would have, having migrated the same entries.
/// Loading the dial bucket sorts nothing out of line: a one-entry bucket
/// moves straight into `current_`, a small one is insertion-sorted with the
/// comparator inlined. Pushing an entry behind the dial (possible only after
/// run(until) returned with events still pending) rewinds via a full
/// rebuild -- rare and O(n).
///
/// Two rules size the ring, each by a rebuild that resizes() counts:
///   - Width follows dial occupancy (Brown's rule: a bucket near the head
///     holds a few events). The queue counts the entries each dial bucket
///     serves -- those its settle loads plus those pushed into it while it
///     drains -- and the distinct times among them. Every kWindowEntries
///     served entries, more than kNarrowAbove distinct times per settle
///     halves the width; fewer than kWidenBelow entries per settle doubles
///     it. (Equal-time entries, such as a burst fanned out at one instant,
///     count as one time: no width splits them, so they must not drive the
///     width toward zero. Pushes into the settled bucket count because they
///     are part of its load: a wide bucket fed by pushes would otherwise
///     read as nearly empty and widen further.)
///     The bucket count doubles or halves with the width, so the horizon
///     stays where it was and a widening ring shrinks; at kMinBuckets or
///     kMaxBuckets the width stays too.
///   - Length follows the population: when the bucketed entries
///     (`current_` included) exceed 2*num_buckets, the ring grows to twice
///     their number at the same width, which lengthens the horizon.
/// The node pool, `current_` and the overflow rung each plateau at their
/// peak population, so steady state performs no allocations. All sizing
/// decisions depend only on queue content and the sequence of operations,
/// never on the host, so runs stay deterministic -- and pop order is exact
/// (at, seq) regardless of sizing, so even a bad width can only cost speed,
/// not correctness.
class CalendarQueue {
 public:
  static constexpr std::size_t kMinBuckets = 64;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  /// Served entries per occupancy window; the average distinct times per
  /// settle above which the width halves, and entries per settle below
  /// which it doubles.
  static constexpr std::uint64_t kWindowEntries = 16384;
  static constexpr std::uint64_t kNarrowAbove = 6;
  static constexpr std::uint64_t kWidenBelow = 2;

  CalendarQueue();

  /// Insert `e`. Inline and O(1) when it lands after the dial inside the
  /// horizon without triggering a resize; everything else goes out of line.
  void push(const EventEntry& e) {
    const std::uint64_t vb = vbucket(e.at);
    // dial < vb < horizon as one unsigned compare (vb <= dial wraps); an
    // empty queue re-bases the dial instead (push_slow).
    if (vb - dial_vb_ - 1 < bucket_mask_ && bucketed_ < 2 * num_buckets() &&
        size_ != 0) [[likely]] {
      link(vb, e);
      ++bucketed_;
      ++size_;
      return;
    }
    push_slow(e);
  }

  /// Earliest entry, or nullptr when empty. Settles the dial (jumps to the
  /// next occupied bucket, migrates newly eligible overflow entries, loads
  /// its entries into `current_` in order) so a following pop() is O(1).
  [[nodiscard]] const EventEntry* peek() {
    if (!current_.empty()) [[likely]] return &current_.back();
    return settle();
  }

  /// Remove and return the earliest entry. Precondition: !empty().
  EventEntry pop() {
    if (current_.empty()) [[unlikely]] settle();
    assert(!current_.empty());
    const EventEntry e = current_.back();
    current_.pop_back();
    --bucketed_;
    --size_;
    return e;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // Introspection (obs + tests).
  [[nodiscard]] std::uint64_t resizes() const noexcept { return resizes_; }
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return bucket_mask_ + 1;
  }
  [[nodiscard]] int shift() const noexcept { return shift_; }
  [[nodiscard]] std::size_t overflow_size() const noexcept {
    return overflow_.size();
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::uint64_t kNoOverflow = UINT64_MAX;
  /// Dial buckets up to this size are insertion-sorted; larger ones go
  /// through std::sort.
  static constexpr std::size_t kInsertionSortMax = 32;

  /// A bucket-list cell in the shared pool; `next` links the bucket's list
  /// while in use and the free list otherwise.
  struct Node {
    EventEntry entry;
    std::uint32_t next;
  };
  static_assert(sizeof(Node) == 32);

  [[nodiscard]] std::uint64_t vbucket(Time at) const noexcept {
    return static_cast<std::uint64_t>(at) >> shift_;
  }
  /// First virtual bucket beyond the ring: entries at or past it overflow.
  [[nodiscard]] std::uint64_t horizon_vb() const noexcept {
    return dial_vb_ + num_buckets();
  }

  /// Prepend `e` to the list of virtual bucket `vb` and mark it occupied.
  void link(std::uint64_t vb, const EventEntry& e) {
    if (free_ == kNil) [[unlikely]] grow_pool();
    const std::uint32_t n = free_;
    const std::size_t b = vb & bucket_mask_;
    free_ = nodes_[n].next;
    nodes_[n] = Node{e, heads_[b]};
    heads_[b] = n;
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }

  /// Append one fresh node to the pool and put it on the free list.
  void grow_pool();
  /// push() for the cases its inline path declines: empty queue (re-base
  /// the dial), the dial bucket (sorted insert into `current_`), behind the
  /// dial (rewind), the overflow rung, and the resize check.
  void push_slow(const EventEntry& e);
  /// With `current_` empty: jump the dial to the next occupied bucket (or
  /// the overflow top when the ring is empty), migrate, and load the dial
  /// bucket into `current_`; counts the load toward the occupancy window.
  /// Returns the earliest entry, nullptr if empty.
  const EventEntry* settle();
  /// Add entries the dial bucket served, `times` of them at new times, to
  /// the occupancy window, and retune the width when the window is full.
  void count_served(std::uint64_t entries, std::uint64_t times);
  /// Virtual bucket of the first occupied list at or after the dial,
  /// wrapping around the ring. Precondition: some list is non-empty.
  [[nodiscard]] std::uint64_t next_occupied_vb() const noexcept;
  /// Move the dial bucket's list into `current_`, sorted descending.
  /// Precondition: that list is non-empty.
  void load_dial();
  /// Link `e` into its bucket list or the overflow rung (no sizing checks).
  void place(const EventEntry& e);
  /// Move overflow entries that fell inside the horizon into their buckets.
  void migrate_overflow();
  /// Refresh `overflow_top_vb_` after the rung changed.
  void note_overflow_top() noexcept;
  /// Call `f(entry)` for every entry in a bucket list (not `current_`).
  template <typename F>
  void for_each_listed(F&& f) const;
  /// Re-bucket everything (plus `extra`, if given) with `new_buckets`
  /// buckets of width 2^new_shift, dial at the earliest entry, and start a
  /// new occupancy window. Counts as one resize.
  void rebuild(std::size_t new_buckets, int new_shift,
               const EventEntry* extra = nullptr);
  /// Length rule: grow the ring to twice the bucketed population.
  void resize_to_fit();
  /// Width rule, at the end of an occupancy window: halve or double the
  /// width (and scale the bucket count to keep the horizon), or keep both.
  void retune_width();

  std::vector<EventEntry> current_;    // dial bucket, sorted descending
  std::vector<std::uint32_t> heads_;   // per-bucket list head, kNil if empty
  std::vector<std::uint64_t> occupied_;  // one bit per bucket: list non-empty
  std::vector<Node> nodes_;            // list cells for every bucket
  std::uint32_t free_ = kNil;          // free-list head in nodes_
  std::size_t bucket_mask_ = 0;        // num_buckets() - 1 (power of two)
  int shift_ = 10;                     // bucket width = 2^shift_ ns
  std::uint64_t dial_vb_ = 0;          // virtual bucket under the dial
  std::size_t bucketed_ = 0;           // entries in current_ + the lists
  std::vector<EventEntry> overflow_;   // min-heap (entry_before) of far entries
  std::uint64_t overflow_top_vb_ = kNoOverflow;
  std::size_t size_ = 0;               // bucketed_ + overflow_.size()
  std::uint64_t resizes_ = 0;
  /// What the dial buckets of the current occupancy window served.
  struct Window {
    std::uint64_t settles = 0;
    std::uint64_t entries = 0;
    std::uint64_t times = 0;  ///< distinct times among the entries
  };
  Window window_;
};

}  // namespace tcn::sim
