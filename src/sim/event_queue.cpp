#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tcn::sim {

namespace {

/// Descending (at, seq) order: sorting a bucket with this puts the earliest
/// entry at the back, so draining is pop_back. A function object rather
/// than a function, so every algorithm it is handed inlines the compare.
struct EntryAfter {
  bool operator()(const EventEntry& a, const EventEntry& b) const noexcept {
    return entry_before(b, a);
  }
};

}  // namespace

// ---------------------------------------------------------------- bin heap --

void BinaryHeapQueue::sift_up(std::size_t i) {
  const EventEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void BinaryHeapQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const EventEntry e = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entry_before(heap_[child + 1], heap_[child])) ++child;
    if (!entry_before(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

// ---------------------------------------------------------------- calendar --

CalendarQueue::CalendarQueue()
    : heads_(kMinBuckets, kNil),
      occupied_(kMinBuckets / 64, 0),
      bucket_mask_(kMinBuckets - 1) {}

void CalendarQueue::grow_pool() {
  nodes_.push_back(Node{EventEntry{}, free_});
  free_ = static_cast<std::uint32_t>(nodes_.size() - 1);
}

void CalendarQueue::note_overflow_top() noexcept {
  overflow_top_vb_ =
      overflow_.empty() ? kNoOverflow : vbucket(overflow_.front().at);
}

void CalendarQueue::place(const EventEntry& e) {
  const std::uint64_t vb = vbucket(e.at);
  if (vb >= horizon_vb()) {
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
    note_overflow_top();
    return;
  }
  link(vb, e);
  ++bucketed_;
}

void CalendarQueue::push_slow(const EventEntry& e) {
  const std::uint64_t vb = vbucket(e.at);
  if (size_ == 0) {
    // Empty queue: re-base the dial on the new entry, O(1). For the
    // occupancy window that starts a dial bucket, as a settle does.
    dial_vb_ = vb;
    ++window_.settles;
  } else if (vb < dial_vb_) {
    // Behind a settled dial. Only possible after run(until) returned with
    // later events still pending and the caller then scheduled an earlier
    // one; rebuild with the dial rewound so the one-day invariant holds.
    ++size_;
    rebuild(num_buckets(), shift_, &e);
    return;
  }
  ++size_;
  if (vb == dial_vb_) {
    // The dial bucket drains from current_ (descending); keep it sorted so
    // popping stays a pop_back. Same-time self-reschedules land near the
    // back (seq is larger), so the common case moves few entries.
    const auto it =
        std::upper_bound(current_.begin(), current_.end(), e, EntryAfter{});
    // Equal-time entries all have smaller seqs, so they sit just behind.
    const bool new_time = it == current_.end() || it->at != e.at;
    current_.insert(it, e);
    ++bucketed_;
    count_served(1, new_time ? 1 : 0);
  } else {
    place(e);
  }
  if (bucketed_ > 2 * num_buckets() && num_buckets() < kMaxBuckets) {
    resize_to_fit();
  }
}

std::uint64_t CalendarQueue::next_occupied_vb() const noexcept {
  const std::size_t last_word = occupied_.size() - 1;  // size is a power of 2
  const std::size_t from = dial_vb_ & bucket_mask_;
  std::size_t w = from >> 6;
  // Bits at or after the dial in its own word first; the dial's own bit is
  // always clear (its entries live in current_). A wrap that comes back to
  // this word reads it whole, finding buckets before the dial.
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (from & 63));
  while (word == 0) {
    w = (w + 1) & last_word;
    word = occupied_[w];
  }
  const std::size_t found = (w << 6) | std::countr_zero(word);
  return dial_vb_ + ((found - from) & bucket_mask_);
}

void CalendarQueue::load_dial() {
  const std::size_t b = dial_vb_ & bucket_mask_;
  std::uint32_t n = heads_[b];
  assert(n != kNil);  // every caller moved the dial onto an occupied bucket
  // Copy the list out and splice its cells onto the free list whole.
  for (;;) {
    current_.push_back(nodes_[n].entry);
    if (nodes_[n].next == kNil) break;
    n = nodes_[n].next;
  }
  nodes_[n].next = free_;
  free_ = heads_[b];
  heads_[b] = kNil;
  occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  // The width rule keeps a settled bucket to a few entries, and a list
  // holds its newest push first, so `current_` is short and often already
  // descending: a one-entry bucket needs nothing, a small one an insertion
  // sort that rarely moves an entry.
  const std::size_t size = current_.size();
  if (size > kInsertionSortMax) [[unlikely]] {
    std::sort(current_.begin(), current_.end(), EntryAfter{});
    return;
  }
  for (std::size_t i = 1; i < size; ++i) {
    const EventEntry e = current_[i];
    std::size_t j = i;
    for (; j > 0 && entry_before(current_[j - 1], e); --j) {
      current_[j] = current_[j - 1];
    }
    current_[j] = e;
  }
}

void CalendarQueue::migrate_overflow() {
  const std::uint64_t horizon = horizon_vb();
  while (overflow_top_vb_ < horizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
    link(overflow_top_vb_, overflow_.back());
    overflow_.pop_back();
    ++bucketed_;
    note_overflow_top();
  }
}

const EventEntry* CalendarQueue::settle() {
  if (size_ == 0) return nullptr;
  // Everything in the overflow rung: jump the dial to its top instead of
  // sweeping empty days (top vb >= old horizon > dial, so the dial never
  // moves backward). Otherwise jump to the next occupied bucket; the
  // overflow entries that jump admits land in buckets the dial just passed
  // (see the class comment), so one migration after the jump is exact.
  dial_vb_ = bucketed_ == 0 ? overflow_top_vb_ : next_occupied_vb();
  if (overflow_top_vb_ < horizon_vb()) migrate_overflow();
  load_dial();
  ++window_.settles;
  std::uint64_t times = 1;
  for (std::size_t i = 1; i < current_.size(); ++i) {
    times += current_[i].at != current_[i - 1].at ? 1 : 0;
  }
  count_served(current_.size(), times);
  assert(!current_.empty());
  return &current_.back();
}

void CalendarQueue::count_served(std::uint64_t entries, std::uint64_t times) {
  window_.entries += entries;
  window_.times += times;
  if (window_.entries >= kWindowEntries) [[unlikely]] retune_width();
}

template <typename F>
void CalendarQueue::for_each_listed(F&& f) const {
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (std::uint64_t word = occupied_[w]; word != 0; word &= word - 1) {
      const std::size_t b = (w << 6) | std::countr_zero(word);
      for (std::uint32_t n = heads_[b]; n != kNil; n = nodes_[n].next) {
        f(nodes_[n].entry);
      }
    }
  }
}

void CalendarQueue::rebuild(std::size_t new_buckets, int new_shift,
                            const EventEntry* extra) {
  std::vector<EventEntry> all;
  all.reserve(size_);
  all.insert(all.end(), current_.begin(), current_.end());
  for_each_listed([&](const EventEntry& e) { all.push_back(e); });
  all.insert(all.end(), overflow_.begin(), overflow_.end());
  if (extra != nullptr) all.push_back(*extra);
  assert(all.size() == size_);

  current_.clear();
  overflow_.clear();
  nodes_.clear();  // every cell is re-linked below; capacity is kept
  free_ = kNil;
  heads_.assign(new_buckets, kNil);
  occupied_.assign(new_buckets / 64, 0);
  bucket_mask_ = new_buckets - 1;
  shift_ = new_shift;
  bucketed_ = 0;
  overflow_top_vb_ = kNoOverflow;
  Time min_at = kTimeMax;
  for (const EventEntry& e : all) min_at = std::min(min_at, e.at);
  dial_vb_ = all.empty() ? 0 : vbucket(min_at);
  for (const EventEntry& e : all) place(e);
  load_dial();
  window_ = {};
  ++resizes_;
}

void CalendarQueue::resize_to_fit() {
  // Twice as many bucketed entries as buckets: lengthen the ring at the same
  // width, so the horizon grows with the near-future population. Choosing
  // the width is retune_width's job alone.
  rebuild(std::bit_ceil(std::min(2 * bucketed_, kMaxBuckets)), shift_);
}

void CalendarQueue::retune_width() {
  // Narrowing needs distinct times to split, widening needs few entries to
  // merge; times <= entries, so no window asks for both. On a steady stream
  // neither step invites the other back: half the width keeps at least
  // half the times per settle (> 3, so > 2 entries), and twice the width at
  // most doubles the entries per settle (< 4, so < 6 times). A window with
  // no settle at all -- one dial bucket took every push -- narrows.
  //
  // Neither step moves the horizon, so neither runs at a ring-size limit.
  // That bounds the width by the horizon the population rule set: a queue
  // that keeps only one or two events pending serves about one per settle
  // at any width, and must not widen without end.
  const bool narrow = window_.times > kNarrowAbove * window_.settles;
  const bool widen = window_.entries < kWidenBelow * window_.settles;
  window_ = {};
  if (narrow && shift_ > 0 && num_buckets() < kMaxBuckets) {
    rebuild(2 * num_buckets(), shift_ - 1);
  } else if (widen && num_buckets() > kMinBuckets) {
    rebuild(num_buckets() / 2, shift_ + 1);
  }
}

}  // namespace tcn::sim
