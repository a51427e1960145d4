// Sampled span tracer for the e2e benchmark's traced run.
//
// The traced run rebuilds a workload from public pieces and wraps the calls
// into each layer from the outside: a TimedScheduler / TimedMarker decorator
// on every switch port, a TimedNode in front of every switch (installed
// through Port::connect), and the flow-start and completion callbacks. Each
// wrapper reports its call through Tracer::span().
//
// Counts are exact; times are sampled. One call in kSampleEvery of each span
// kind is timed with two steady_clock reads. A net span (one switch receive)
// is the only kind that contains others: the scheduler and marker calls made
// inside a timed net span are all timed, so the net span's self time is its
// duration minus theirs. Scheduler and marker calls outside any net span
// (the port's transmit-complete event) are sampled on their own.
//
// Timing overhead is removed in totals(). A timed leaf span's interval holds
// its call plus the cost of an empty span, which is measured during the run
// in the same place: after every kCalibrateEvery-th timed leaf span an empty
// kCal span is timed in the same context (inside the same net span, or at
// top level), and the mean of those is subtracted per context. Measuring it
// in place matters: the clock read costs ~30 ns and drifts with the host's
// speed by tens of percent over seconds, while a marker call costs ~3 ns. A
// net span's self time also drops one read's cost for its own interval and
// one per child for the child's reads outside the child's interval; the
// empty top-level span is that cost.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/scheduler.hpp"
#include "net/switch.hpp"
#include "topo/network.hpp"

namespace tcn::e2e {

/// kCal is the empty calibration span; it is never reported.
enum class Span : std::uint8_t { kNet, kSched, kAqm, kStart, kStats, kCal };
inline constexpr std::size_t kNumSpans = 5;  ///< the reported kinds

/// Time one call in this many per span kind.
inline constexpr std::uint64_t kSampleEvery = 16;
/// Time one empty kCal span after this many timed leaf spans.
inline constexpr std::uint64_t kCalibrateEvery = 32;

[[nodiscard]] inline std::int64_t clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-layer totals of one traced run, extrapolated from the samples.
struct LayerTimes {
  std::array<double, kNumSpans> self_s{};  ///< indexed by Span
  std::array<std::uint64_t, kNumSpans> calls{};
  /// Mean interval of an empty top-level span over the run, in ns: the cost
  /// of one clock read plus the span's own bookkeeping.
  double clock_ns = 0.0;
  /// Spans that opened where the attribution assumes none can: a net span
  /// inside any span, or a non-net span inside a non-net span. The traced
  /// run fails when this is nonzero.
  std::uint64_t unexpected_nesting = 0;
};

class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Run f() as one call of `kind`, returning what f returns.
  template <typename F>
  decltype(auto) span(Span kind, F&& f) {
    Kind& k = kinds_[static_cast<std::size_t>(kind)];
    ++k.calls;
    const bool net = kind == Span::kNet;
    if (open_ != Open::kNone && (net || open_ == Open::kLeaf)) {
      ++unexpected_nesting_;
    }
    const Open outer = open_;
    const bool nested = outer == Open::kNet;
    const bool timed = nested ? net_timed_
                              : kind == Span::kCal ||
                                    k.top_calls++ % kSampleEvery == 0;
    open_ = net ? Open::kNet : Open::kLeaf;
    if (net) net_timed_ = timed;
    // Closes the span when f() returns or throws, after its result exists.
    struct Close {
      Tracer& t;
      Kind& k;
      Open outer;
      bool timed;
      bool nested;
      bool leaf;
      std::int64_t t0;
      ~Close() {
        if (timed) {
          const std::int64_t d = clock_ns() - t0;
          if (nested) {
            k.nested_ns += d;
            ++k.nested_timed;
          } else {
            k.top_ns += d;
            ++k.top_timed;
          }
        }
        t.open_ = outer;
        if (timed && leaf && ++t.timed_leaves_ % kCalibrateEvery == 0) {
          t.time_empty_span();
        }
      }
    } close{*this,
            k,
            outer,
            timed,
            nested,
            !net && kind != Span::kCal,
            timed ? clock_ns() : 0};
    return f();
  }

  /// Marker decisions that requested a CE mark (aqm.mark_ratio numerator).
  void count_mark() noexcept { ++marks_; }
  [[nodiscard]] std::uint64_t marks() const noexcept { return marks_; }

  [[nodiscard]] LayerTimes totals() const;

 private:
  enum class Open : std::uint8_t { kNone, kNet, kLeaf };

  /// One empty kCal span. Out of line, so span<F> does not instantiate
  /// itself recursively.
  void time_empty_span();

  struct Kind {
    std::uint64_t calls = 0;
    std::uint64_t top_calls = 0;  ///< calls outside any net span
    std::uint64_t top_timed = 0;
    std::int64_t top_ns = 0;      ///< raw clock intervals, uncorrected
    std::uint64_t nested_timed = 0;
    std::int64_t nested_ns = 0;   ///< inside timed net spans
  };

  std::array<Kind, kNumSpans + 1> kinds_{};  ///< kCal last
  std::uint64_t timed_leaves_ = 0;
  Open open_ = Open::kNone;
  bool net_timed_ = false;
  std::uint64_t marks_ = 0;
  std::uint64_t unexpected_nesting_ = 0;
};

/// Scheduler decorator: forwards every call to the wrapped scheduler inside
/// a kSched span. Port dispatches to it through the virtual interface.
class TimedScheduler final : public net::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<net::Scheduler> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void bind(const std::vector<net::PacketQueue>* queues,
            std::uint64_t link_rate_bps) override {
    inner_->bind(queues, link_rate_bps);
  }
  bool admit(std::size_t q, const net::Packet& p, sim::Time now,
             std::uint64_t port_bytes, std::uint64_t buffer_limit) override {
    return tracer_.span(Span::kSched, [&] {
      return inner_->admit(q, p, now, port_bytes, buffer_limit);
    });
  }
  void on_enqueue(std::size_t q, const net::Packet& p,
                  sim::Time now) override {
    tracer_.span(Span::kSched, [&] { inner_->on_enqueue(q, p, now); });
  }
  std::size_t select(sim::Time now) override {
    return tracer_.span(Span::kSched, [&] { return inner_->select(now); });
  }
  void on_dequeue(std::size_t q, const net::Packet& p,
                  sim::Time now) override {
    tracer_.span(Span::kSched, [&] { inner_->on_dequeue(q, p, now); });
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

  [[nodiscard]] net::Scheduler& inner() noexcept { return *inner_; }

 private:
  std::unique_ptr<net::Scheduler> inner_;
  Tracer& tracer_;
};

/// Marker decorator: forwards both marking hooks inside a kAqm span.
class TimedMarker final : public net::Marker {
 public:
  TimedMarker(std::unique_ptr<net::Marker> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool on_enqueue(const net::MarkContext& ctx, const net::Packet& p) override {
    return counted(
        tracer_.span(Span::kAqm, [&] { return inner_->on_enqueue(ctx, p); }));
  }
  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override {
    return counted(
        tracer_.span(Span::kAqm, [&] { return inner_->on_dequeue(ctx, p); }));
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  bool counted(bool mark) {
    if (mark) tracer_.count_mark();
    return mark;
  }

  std::unique_ptr<net::Marker> inner_;
  Tracer& tracer_;
};

/// Stands in front of a switch: every packet a link delivers to the switch
/// passes through receive() inside a kNet span.
class TimedNode final : public net::Node {
 public:
  TimedNode(net::Switch& sw, Tracer& tracer) : sw_(sw), tracer_(tracer) {}

  void receive(net::PacketPtr p, std::size_t ingress) override {
    tracer_.span(Span::kNet, [&] { sw_.receive(std::move(p), ingress); });
  }
  [[nodiscard]] std::string_view name() const override { return sw_.name(); }

 private:
  net::Switch& sw_;
  Tracer& tracer_;
};

/// Factories whose products are wrapped in the decorators above. The marker
/// factory hands the inner scheduler to the wrapped factory, so schemes that
/// inspect the scheduler (MQ-ECN's RoundRateProvider cast) still see it.
topo::SchedulerFactory timed_factory(topo::SchedulerFactory f, Tracer& tracer);
topo::MarkerFactory timed_factory(topo::MarkerFactory f, Tracer& tracer);

/// Reconnect every link that ends at a switch (switch egresses and host
/// NICs) to a TimedNode for that switch. The nodes are appended to `nodes`,
/// which must outlive the network.
void wrap_switches(topo::Network& network, Tracer& tracer,
                   std::vector<std::unique_ptr<TimedNode>>& nodes);

}  // namespace tcn::e2e
