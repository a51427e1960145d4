// Slim per-flow transport state for open-loop runs: tens of millions of
// flows through a bounded working set.
//
// FlowManager keeps every sender/sink ever started alive until teardown --
// fine for a few thousand closed-loop flows, fatal for an open-loop engine
// whose lifetime flow count is unbounded. FlowSlab applies the PR 3
// PacketPool pattern to whole flows: slots live in a std::deque (stable
// addresses), recycled slots go onto a LIFO free list, and the steady-state
// working set is the peak number of *concurrently active* flows, not the
// lifetime arrival count. A slot's TcpSender/TcpSink are destroyed at
// recycle (cancelling timers, unbinding ports, releasing their lazy
// message ring/map/ack state) and the next flow reconstructs into the same
// slot.
//
// Ports recycle too: Host::allocate_port() hands out each of a host's
// 64,512 ephemeral ports once and then throws, so the slab keeps a per-host
// free list and a host's port footprint is bounded by its peak concurrent
// flows.
//
// Like PacketPool and PacketUidScope, the slab and the flow-uid counter
// install per run via thread-local RAII scopes, so parallel sweep jobs are
// fully isolated and jobs=1 vs jobs=N runs draw identical flow ids.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "transport/tcp_sender.hpp"
#include "transport/tcp_sink.hpp"

namespace tcn::traffic {

/// Per-run flow-id counter, sibling of net::PacketUidScope. Installed by
/// run_fct_experiment; the engine draws from the innermost scope so ids are
/// per-run deterministic regardless of worker-thread interleaving.
class FlowUidScope {
 public:
  // Out of line next to the thread-local they touch (packet.cpp idiom): an
  // inline ctor in a foreign TU would go through the extern-TLS wrapper,
  // which GCC's sanitizers resolve to null.
  FlowUidScope() noexcept;
  ~FlowUidScope();

  FlowUidScope(const FlowUidScope&) = delete;
  FlowUidScope& operator=(const FlowUidScope&) = delete;

  std::uint64_t next() noexcept { return ++counter_; }
  [[nodiscard]] std::uint64_t issued() const noexcept { return counter_; }

  static FlowUidScope* current() noexcept;

 private:
  std::uint64_t counter_ = 0;
  FlowUidScope* prev_;  ///< shadowed scope restored on destruction
};

class FlowSlab {
 public:
  /// One recyclable flow: transport endpoints plus the metadata the
  /// completion path needs after the sender is gone.
  struct Slot {
    std::optional<transport::TcpSink> sink;
    std::optional<transport::TcpSender> sender;
    std::uint64_t flow_id = 0;
    std::uint64_t size = 0;
    std::uint32_t service = 0;
    std::uint32_t src_addr = 0;
    std::uint32_t dst_addr = 0;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    bool slab_free = true;  ///< double-recycle guard, like Packet::pool_free
  };

  FlowSlab() = default;
  FlowSlab(const FlowSlab&) = delete;
  FlowSlab& operator=(const FlowSlab&) = delete;

  /// Index of a clean slot: LIFO-reused if one is free, freshly grown
  /// otherwise. The caller owns the slot until recycle(index).
  std::uint32_t acquire();

  [[nodiscard]] Slot& at(std::uint32_t index) { return slots_[index]; }

  /// Destroy the slot's transport state (cancels timers, unbinds ports),
  /// return its ports to the per-host free lists and the slot to the slab.
  /// Must not be called from inside the slot's own sender callbacks --
  /// defer via Simulator::schedule_in(0, ...). Double recycles are counted
  /// and dropped, never corrupting the free list.
  void recycle(std::uint32_t index);

  /// A port for `host`, recycled from a completed flow when available.
  std::uint16_t checkout_port(net::Host& host);

  [[nodiscard]] std::uint64_t fresh_allocs() const noexcept { return fresh_; }
  [[nodiscard]] std::uint64_t reuses() const noexcept { return reused_; }
  [[nodiscard]] std::uint64_t recycles() const noexcept { return recycled_; }
  [[nodiscard]] std::uint64_t double_recycles() const noexcept {
    return double_recycled_;
  }
  /// Slots currently held by live flows.
  [[nodiscard]] std::uint64_t live() const noexcept {
    return fresh_ + reused_ - recycled_;
  }
  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t free_size() const noexcept { return free_.size(); }

  /// Per-run RAII installation, sibling of net::PacketPool::Scope.
  class Scope {
   public:
    explicit Scope(FlowSlab& slab) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FlowSlab* prev_;
  };

  static FlowSlab* current() noexcept;

 private:
  std::deque<Slot> slots_;          // stable addresses across growth
  std::vector<std::uint32_t> free_; // LIFO: cache-warm reuse order
  // Host address -> ports released by recycled flows. Keyed by address (a
  // plain u32), not Host*, so the slab never dangles if it outlives a
  // topology in tests.
  std::unordered_map<std::uint32_t, std::vector<std::uint16_t>> ports_;

  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t double_recycled_ = 0;
};

}  // namespace tcn::traffic
