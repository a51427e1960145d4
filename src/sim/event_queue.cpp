#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tcn::sim {

namespace {

/// Descending (at, seq) order: sorting a bucket with this puts the earliest
/// entry at the back, so draining is pop_back.
bool entry_after(const EventEntry& a, const EventEntry& b) noexcept {
  return entry_before(b, a);
}

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
    std::push_heap(overflow_.begin(), overflow_.end(), entry_after);
    note_overflow_top();
    return;
  }
  link(vb, e);
  ++bucketed_;
}

void CalendarQueue::push_slow(const EventEntry& e) {
  const std::uint64_t vb = vbucket(e.at);
  if (size_ == 0) {
    // Empty queue: re-base the dial on the new entry, O(1).
    dial_vb_ = vb;
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
    current_.insert(
        std::upper_bound(current_.begin(), current_.end(), e, entry_after), e);
    ++bucketed_;
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
  std::sort(current_.begin(), current_.end(), entry_after);
}

void CalendarQueue::migrate_overflow() {
  const std::uint64_t horizon = horizon_vb();
  while (overflow_top_vb_ < horizon) {
    std::pop_heap(overflow_.begin(), overflow_.end(), entry_after);
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
  assert(!current_.empty());
  return &current_.back();
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
  ++resizes_;
}

void CalendarQueue::resize_to_fit() {
  // Bucket count ~ near-future population (so occupancy stays O(1) per
  // bucket); width ~ the mean inter-event gap of the BUCKETED entries only
  // (the dial bucket included) -- far-future outliers (RTOs, diurnal
  // ramps) live in the overflow rung and must not stretch the ring's width.
  // The ring only ever grows (the same plateau-at-peak discipline as the
  // slot pool and the node pool), so repeated drain/refill cycles resize
  // once and then run allocation-free. Everything here is a function of
  // queue content only: deterministic.
  const std::size_t want = std::clamp(2 * bucketed_, kMinBuckets, kMaxBuckets);
  const std::size_t new_buckets = std::max(std::bit_ceil(want), num_buckets());

  Time min_at = kTimeMax;
  Time max_at = 0;
  const auto extend = [&](const EventEntry& e) {
    min_at = std::min(min_at, e.at);
    max_at = std::max(max_at, e.at);
  };
  for (const EventEntry& e : current_) extend(e);
  for_each_listed(extend);

  int new_shift = shift_;
  const std::size_t n = bucketed_;
  if (n > 1 && max_at > min_at) {
    const std::uint64_t gap =
        static_cast<std::uint64_t>(max_at - min_at) / (n - 1);
    new_shift = std::clamp(static_cast<int>(std::bit_width(gap)), 0, 40);
  }
  rebuild(new_buckets, new_shift);
}

}  // namespace tcn::sim
