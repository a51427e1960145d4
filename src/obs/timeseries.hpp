// In-sim time-series sampling + online stability analysis.
//
// PR 4's MetricsRegistry captures end-of-run aggregates; control-loop
// pathologies of sojourn-based ECN are *temporal* (D2TCP-style nonlinear
// oscillation, Curvy-RED sawtooth regimes) and invisible in a whole-run
// histogram. obs::TimeSeries adds the missing layer:
//
//   - a fixed-interval sampler driven by ONE periodic self-rescheduling
//     simulator event, off by default: ports register a Channel per queue
//     ONCE at construction from the thread-local TimeSeries::Scope (like
//     MetricsRegistry), and nothing on the packet path knows it exists
//   - no per-packet work: each channel points at its net::PacketQueue, and
//     a tick reads the queue's depth and the growth of its cumulative
//     counters since the previous tick
//   - per-channel bounded ring buffers of SeriesPoint (O(max_samples)
//     memory regardless of run length) for --series-out deep dives; a run
//     that writes no dump samples with max_samples = 0 and keeps no points
//   - an online StabilityAnalyzer fed every tick (O(1) memory: Welford /
//     Pebay central moments, running lag-1 autocorrelation sums) reducing
//     each series to deterministic stability metrics -- oscillation score
//     (Sarle bimodality x depth CV), sojourn CV, mark burstiness (Fano
//     factor) -- and a stable / oscillating / saturated regime label
//
// Determinism rules (the same contract as the rest of src/obs):
//
//   - channels are registered in topology-build order and ticked in that
//     order; serialization sorts by channel name -- both independent of
//     host scheduling, so stability metrics and series dumps are
//     byte-identical for any --jobs value
//   - the analyzer sees EVERY tick (not just the ones the ring retained),
//     so its metrics are exact even when the ring truncated the series
//   - the sampler stops rescheduling itself when its pop left the event
//     queue empty: a run that would have drained still drains, and
//     Simulator::run(kTimeMax) terminates
//
// NOTE: TimeSeries deliberately registers NOTHING in the MetricsRegistry
// at construction time -- pinned metrics goldens (tests/golden/) must not
// change when sampling stays off. Stability gauges are published by the
// experiment layer after the run, and only when sampling ran.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace tcn::obs {

struct TimeSeriesConfig {
  /// Sampling interval in simulated time; 0 = sampler disabled.
  sim::Time interval = 0;
  /// Ring capacity per channel: the LAST max_samples ticks are retained for
  /// serialization; 0 retains none. The analyzer always sees every tick.
  std::size_t max_samples = 2048;

  [[nodiscard]] bool enabled() const noexcept { return interval > 0; }
};

/// One fixed-interval observation of one (port, queue) channel. Depth is the
/// queue's instantaneous occupancy at the tick; the other fields are sums
/// over the interval that ended at `t`.
struct SeriesPoint {
  sim::Time t = 0;
  std::uint64_t depth_bytes = 0;
  std::uint64_t depth_packets = 0;
  std::uint64_t deq_packets = 0;    ///< dequeues during the interval
  std::uint64_t sojourn_sum_ns = 0; ///< summed over those dequeues
  std::uint64_t marks = 0;          ///< CE marks (enqueue- or dequeue-side)
  std::uint64_t tx_bytes = 0;       ///< bytes serialized onto the link
};

enum class Regime : std::uint8_t { kStable, kOscillating, kSaturated };

[[nodiscard]] std::string_view regime_name(Regime r) noexcept;
/// Inverse of regime_name; nullopt for a string that names no regime.
[[nodiscard]] std::optional<Regime> regime_from_name(
    std::string_view s) noexcept;

/// Deterministic reduction of one channel's series.
struct StabilityResult {
  std::uint64_t samples = 0;
  /// Sarle-bimodality excess over unimodal, damped by depth CV, in [0, 1].
  /// High = the depth series spends its time at two separated levels AND
  /// swings between them -- the sawtooth signature.
  double oscillation_score = 0.0;
  /// CV of per-tick mean sojourn (ticks with >= 1 dequeue).
  double sojourn_cv = 0.0;
  /// Fano factor (variance / mean) of per-tick mark counts: ~1 for
  /// Poisson-like marking, >> 1 for bursty on/off marking, 0 when no marks.
  double mark_burstiness = 0.0;
  double depth_mean_bytes = 0.0;
  double depth_cv = 0.0;
  /// Lag-1 autocorrelation of the depth series, clamped to [-1, 1].
  double lag1_autocorr = 0.0;
  /// Raw Sarle bimodality coefficient (uniform = 5/9, two-point = 1).
  double bimodality = 0.0;
  Regime regime = Regime::kStable;
};

/// Online (O(1) memory) reducer: feed every SeriesPoint, read the result
/// after the run. Uses Pebay's single-pass central-moment updates for the
/// depth distribution (-> CV, skewness, kurtosis -> Sarle bimodality),
/// running sums for lag-1 autocorrelation, and Welford accumulators for
/// the sojourn-CV and mark-Fano channels.
class StabilityAnalyzer {
 public:
  /// Below this many ticks the moment estimates are noise: everything
  /// reports 0 / stable.
  static constexpr std::uint64_t kMinSamples = 8;
  /// Sarle bimodality of a uniform distribution -- the conventional
  /// unimodal/bimodal boundary. Scores scale the excess over this.
  static constexpr double kUniformBimodality = 5.0 / 9.0;
  /// oscillation_score at or above this classifies as kOscillating.
  static constexpr double kOscillationThreshold = 0.25;
  /// Mean occupancy (depth / capacity) at or above this classifies as
  /// kSaturated -- the queue is pinned near full, not oscillating.
  static constexpr double kSaturationOccupancy = 0.5;

  void observe(const SeriesPoint& p) noexcept;

  /// `cap_bytes` is the channel's buffer capacity for the saturation test;
  /// pass UINT64_MAX (unbounded) to disable it.
  [[nodiscard]] StabilityResult result(std::uint64_t cap_bytes) const noexcept;

  [[nodiscard]] std::uint64_t samples() const noexcept { return depth_n_; }
  [[nodiscard]] std::uint64_t total_tx_bytes() const noexcept {
    return total_tx_bytes_;
  }

 private:
  // Depth central moments (Pebay single-pass updates).
  std::uint64_t depth_n_ = 0;
  double depth_mean_ = 0.0;
  double depth_m2_ = 0.0;
  double depth_m3_ = 0.0;
  double depth_m4_ = 0.0;
  // Lag-1 autocorrelation of depth: sum of x_i * x_{i-1}.
  double lag_prev_ = 0.0;
  double lag_sum_ = 0.0;
  std::uint64_t lag_n_ = 0;
  // Per-tick mean sojourn, over ticks that dequeued something.
  std::uint64_t soj_n_ = 0;
  double soj_mean_ = 0.0;
  double soj_m2_ = 0.0;
  // Per-tick mark counts, over all ticks.
  std::uint64_t mark_n_ = 0;
  double mark_mean_ = 0.0;
  double mark_m2_ = 0.0;
  std::uint64_t total_tx_bytes_ = 0;
};

/// The per-run sampler. Install via TimeSeries::Scope BEFORE building the
/// topology (like MetricsRegistry::Scope); ports then register one channel
/// per queue. start() arms the periodic tick.
class TimeSeries {
 public:
  /// One sampled (port, queue) stream. It reads its queue only at a tick:
  /// the depth then, and the dequeues, sojourn, marks and tx bytes counted
  /// since the previous tick. The queue must outlive the ticks.
  class Channel {
   public:
    Channel(std::string name, const net::PacketQueue& queue,
            std::uint64_t cap_bytes, std::size_t max_samples)
        : name_(std::move(name)),
          queue_(&queue),
          last_(queue.counters()),
          cap_bytes_(cap_bytes),
          max_samples_(max_samples) {}

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::uint64_t cap_bytes() const noexcept {
      return cap_bytes_;
    }
    [[nodiscard]] const StabilityAnalyzer& analyzer() const noexcept {
      return analyzer_;
    }
    /// Retained points, oldest first (at most max_samples; the ring keeps
    /// the most recent ticks).
    [[nodiscard]] std::vector<SeriesPoint> points() const;

   private:
    friend class TimeSeries;

    void sample(sim::Time now);

    std::string name_;
    const net::PacketQueue* queue_;
    net::QueueCounters last_;  // queue_'s counters at the previous tick
    std::uint64_t cap_bytes_;
    std::size_t max_samples_;
    // Bounded ring: ring_[next_] is the oldest once wrapped_.
    std::vector<SeriesPoint> ring_;
    std::size_t next_ = 0;
    bool wrapped_ = false;
    StabilityAnalyzer analyzer_;
  };

  explicit TimeSeries(TimeSeriesConfig cfg) : cfg_(cfg) {}
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Register a channel that samples `queue` from its counts so far.
  Channel* add_channel(std::string name, const net::PacketQueue& queue,
                       std::uint64_t cap_bytes);

  /// Arm the periodic tick: first sample at now + interval. Call after the
  /// workload is scheduled. Safe to call again after the sampler stopped
  /// (it re-arms; used by benchmarks that drain the queue repeatedly).
  void start(sim::Simulator& sim);

  [[nodiscard]] const TimeSeriesConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return channels_.size();
  }
  /// Channels sorted by name -- the serialization order.
  [[nodiscard]] std::vector<const Channel*> sorted_channels() const;
  /// The channel carrying the most tx bytes (ties: lexicographically
  /// smallest name), or nullptr when no channels exist. This is the run's
  /// headline stability channel: the bottleneck egress queue.
  [[nodiscard]] const Channel* dominant_channel() const;

  /// RAII thread-local installation, nesting like MetricsRegistry::Scope.
  class Scope {
   public:
    explicit Scope(TimeSeries& ts) noexcept : prev_(tls_slot()) {
      tls_slot() = &ts;
    }
    ~Scope() { tls_slot() = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TimeSeries* prev_;
  };

  /// Sampler installed on this thread, or nullptr when sampling is off --
  /// the one branch a port pays, at construction time.
  [[nodiscard]] static TimeSeries* current() noexcept { return tls_slot(); }

 private:
  void tick(sim::Simulator& sim);

  static TimeSeries*& tls_slot() noexcept {
    static thread_local TimeSeries* current = nullptr;
    return current;
  }

  TimeSeriesConfig cfg_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::uint64_t ticks_ = 0;
  bool armed_ = false;
};

}  // namespace tcn::obs
