// Discrete-event simulator core.
//
// A Simulator owns a pending-event calendar queue (sim/event_queue.hpp)
// ordered by (time, insertion sequence) so that events scheduled for the
// same instant fire in scheduling order -- this makes every run
// deterministic, and the order is identical to the binary heap the calendar
// replaced, so golden traces stay byte-for-byte stable. Events are
// arbitrary callables; schedule() returns an EventId usable with cancel().
//
// Zero-allocation hot path: callbacks are move-only InlineCallbacks with
// fixed inline storage (sim/inline_callback.hpp), and they live in a
// free-list slot pool *next to* the queue rather than inside it. Queue
// entries are 24-byte PODs {time, seq, slot, gen}, so restructuring moves
// trivial structs instead of relocating 64-byte callables; a callback is
// constructed once, directly into its slot, and invoked in place -- zero
// relocations over its whole lifetime. Steady state performs no heap
// allocations at all: the slot blocks and free list plateau at the peak
// pending-event count, and so does the calendar queue. Its buckets are
// lists over one node pool, so each of its arrays (node pool, dial bucket,
// overflow rung) is bounded by the peak pending count, plus a 4-byte head
// per bucket -- not by every bucket's own largest-ever burst. The queue
// picks its bucket width from what each dial settle loads, so a settled
// bucket holds a few events on the sparse star and the dense leaf-spine
// alike, and it loads them without a sort call.
//
// Cancellation is O(1) via slot generations: an EventId encodes (slot,
// generation); cancel() compares the ticket against the slot's current
// generation -- a mismatch means the event already fired (or was already
// cancelled) and is a no-op, a match destroys the captures immediately and
// bumps the generation so the queue discards the dead entry when popped.
// No side tables, no scans, nothing to leak.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace tcn::sim {

/// Cancellation ticket: (slot generation << 32) | (slot index + 1), so a
/// valid id is never 0. Ids are NOT monotone across events (the (at, seq)
/// pop order comes from an internal sequence counter instead).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Per-run execution budgets enforced by Simulator::run(). Every limit is
/// "0 = unlimited". Event and sim-time budgets are deterministic (they
/// depend only on the simulation); the wall-clock budget measures the host
/// and exists to turn a hung job into a diagnosable error instead of a
/// stuck sweep worker.
struct RunBudget {
  /// Hard ceiling on total events executed by this simulator.
  std::uint64_t max_events = 0;
  /// Hard ceiling on simulation time: an event scheduled past this instant
  /// throws instead of executing (distinct from run(until), which is a
  /// normal stop).
  Time max_sim_time = 0;
  /// Wall-clock watchdog for one run() call, in milliseconds. Checked every
  /// kWallCheckInterval events so the hot path stays clock-free.
  double max_wall_ms = 0.0;
  /// OOM guard: ceiling on pending queue entries (a component that schedules
  /// faster than it executes grows the queue without bound).
  std::size_t max_pending = 0;

  [[nodiscard]] bool any() const noexcept {
    return max_events != 0 || max_sim_time != 0 || max_wall_ms != 0.0 ||
           max_pending != 0;
  }
};

/// Thrown by Simulator::run() when a RunBudget limit (or the event-storm
/// watchdog) trips. Derives from std::runtime_error so existing catch
/// sites keep working; the kind lets the sweep runner classify the failure
/// (timeout vs oom-guard) instead of string-matching what().
class BudgetExceeded : public std::runtime_error {
 public:
  enum class Kind {
    kWallClock,   ///< max_wall_ms elapsed
    kSimTime,     ///< next event lies past max_sim_time
    kEvents,      ///< max_events executed
    kPending,     ///< queue grew past max_pending (OOM guard)
    kEventStorm,  ///< same-timestamp livelock watchdog
  };

  BudgetExceeded(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

class Simulator {
 public:
  /// Move-only, allocation-free event callable. Captures larger than the
  /// inline budget are a compile error.
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `at` (must be >= now()). Templated so
  /// the callable is constructed directly into its storage slot -- one
  /// copy/move from the caller's lambda, zero further relocations for the
  /// event's whole lifetime.
  template <typename F>
  EventId schedule_at(Time at, F&& cb) {
    if (at < now_) {
      throw std::invalid_argument("Simulator::schedule_at: time in the past");
    }
    const std::uint32_t s = acquire_slot();
    slot(s) = std::forward<F>(cb);
    const std::uint32_t gen = slot_gens_[s];
    queue_.push(EventEntry{at, next_seq_++, s, gen});
    if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
    return (static_cast<EventId>(gen) << 32) | (s + 1);
  }

  /// Schedule `cb` `delay` nanoseconds from now.
  template <typename F>
  EventId schedule_in(Time delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Cancel a pending event: O(1). Returns true iff the event was pending
  /// (its captures are destroyed and its slot recycled immediately; the
  /// queue entry becomes a tombstone discarded when popped). Cancelling an
  /// invalid id, an id that already fired, or an already-cancelled id is a
  /// harmless no-op returning false.
  bool cancel(EventId id);

  /// Run until the event queue drains or simulation time exceeds `until`.
  /// Returns the number of events executed.
  /// Throws BudgetExceeded (a std::runtime_error) if more than the
  /// event-storm limit of events execute at one timestamp -- a livelocked
  /// component (an event chain that never advances time) becomes a
  /// diagnostic error instead of a hang -- or when any RunBudget limit set
  /// via set_budget() trips.
  std::uint64_t run(Time until = kTimeMax);

  /// Adjust the same-timestamp event-storm watchdog (default 10M events).
  void set_event_storm_limit(std::uint64_t limit) noexcept {
    storm_limit_ = limit;
  }

  /// Install per-run execution budgets (see RunBudget). All limits default
  /// to unlimited; with no budget set run() pays a single branch per event.
  void set_budget(const RunBudget& budget) noexcept { budget_ = budget; }

  [[nodiscard]] const RunBudget& budget() const noexcept { return budget_; }

  /// Events between wall-clock reads when max_wall_ms is set; a power of
  /// two so the check is a mask, not a division.
  static constexpr std::uint64_t kWallCheckInterval = 4096;

  /// Request that run() return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  /// Total events executed so far (diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Pending (non-cancelled) event count.
  [[nodiscard]] std::size_t pending() const noexcept {
    return queue_.size() - tombstones_;
  }

  /// Cancelled-but-not-yet-discarded queue entries (diagnostics; bounded by
  /// the number of queue entries, and each is discarded in O(1) when its
  /// time comes -- cancels can never leak).
  [[nodiscard]] std::size_t cancelled_backlog() const noexcept {
    return tombstones_;
  }

  /// High-water mark of pending queue entries. Engine telemetry: copied
  /// into FctReport after each run (the per-run registry is byte-pinned by
  /// the metrics golden, so the simulator itself registers nothing --
  /// plain counters here keep the hot path obs-free entirely).
  [[nodiscard]] std::uint64_t peak_pending() const noexcept {
    return peak_pending_;
  }

  /// Calendar-queue rebuilds so far (FctReport::sim_calendar_resizes).
  [[nodiscard]] std::uint64_t calendar_resizes() const noexcept {
    return queue_.resizes();
  }

  /// The pending-event container (introspection for tests/benches).
  [[nodiscard]] const CalendarQueue& queue() const noexcept { return queue_; }

 private:
  friend struct SimulatorTestPeer;

  /// Slot storage: fixed power-of-two blocks that are allocated once and
  /// never move, so growth (a nested schedule while a callback executes in
  /// place) cannot invalidate a live callable, and indexing is a
  /// shift+mask rather than std::deque's divide-by-block-capacity.
  static constexpr std::uint32_t kSlotBlockShift = 6;
  static constexpr std::uint32_t kSlotBlockSize = 1u << kSlotBlockShift;

  [[nodiscard]] Callback& slot(std::uint32_t s) noexcept {
    return slot_blocks_[s >> kSlotBlockShift][s & (kSlotBlockSize - 1)];
  }

  /// Pop a free slot (or grow the pool); the slot's callback is empty.
  std::uint32_t acquire_slot();
  /// Destroy the slot's callback, invalidate outstanding tickets for it
  /// (generation bump) and return the index to the free list.
  void release_slot(std::uint32_t slot) noexcept;

  /// Throws BudgetExceeded for the budget check that tripped on an event
  /// at time `at`.
  [[noreturn]] void throw_budget(BudgetExceeded::Kind kind, Time at) const;

  Time now_ = 0;
  bool stopped_ = false;
  RunBudget budget_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t storm_limit_ = 10'000'000;
  CalendarQueue queue_;
  /// Callback blocks indexed via slot(); the outer vector may reallocate
  /// but only holds pointers -- block addresses are stable for life.
  std::vector<std::unique_ptr<Callback[]>> slot_blocks_;
  std::uint32_t slot_count_ = 0;           // total slots ever created
  std::vector<std::uint32_t> free_slots_;  // LIFO recycled slot indices
  /// Current generation per slot; bumped on every release (fire or cancel)
  /// so stale EventIds can never alias a live event. 32-bit: a collision
  /// needs one slot to cycle 2^32 times while a single entry is pending.
  std::vector<std::uint32_t> slot_gens_;
  std::uint64_t tombstones_ = 0;    // cancelled entries still in the queue
  std::uint64_t peak_pending_ = 0;  // high-water mark of queue_.size()
};

}  // namespace tcn::sim
