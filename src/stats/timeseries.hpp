// Time-series instruments: per-service goodput meters (Fig. 1 / 5a) and a
// periodic queue-occupancy sampler (Fig. 3).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace tcn::stats {

/// Accumulates delivered bytes into fixed-width bins; goodput of bin i is
/// bytes[i]*8/bin_width. Hook `record` into TcpSink delivery callbacks.
class GoodputMeter {
 public:
  explicit GoodputMeter(sim::Time bin_width) : bin_width_(bin_width) {}

  void record(std::uint32_t bytes, sim::Time now) {
    const auto bin = static_cast<std::size_t>(now / bin_width_);
    if (bins_.size() <= bin) bins_.resize(bin + 1, 0);
    bins_[bin] += bytes;
    total_ += bytes;
  }

  /// Goodput of bin i in bits/sec.
  [[nodiscard]] double bin_bps(std::size_t i) const {
    if (i >= bins_.size()) return 0.0;
    return static_cast<double>(bins_[i]) * 8.0 / sim::to_seconds(bin_width_);
  }

  /// Average goodput over [from, to) in bits/sec.
  [[nodiscard]] double average_bps(sim::Time from, sim::Time to) const;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_; }
  [[nodiscard]] sim::Time bin_width() const noexcept { return bin_width_; }

 private:
  sim::Time bin_width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// Samples a value (e.g. port buffer occupancy) every `interval` and stores
/// (time, value) pairs.
class PeriodicSampler {
 public:
  using Probe = std::function<double()>;

  PeriodicSampler(sim::Simulator& sim, sim::Time interval, Probe probe)
      : sim_(sim), interval_(interval), probe_(std::move(probe)) {}
  ~PeriodicSampler() { stop(); }

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  void start() {
    if (timer_ == sim::kInvalidEvent) tick();
  }
  void stop() {
    if (timer_ != sim::kInvalidEvent) {
      sim_.cancel(timer_);
      timer_ = sim::kInvalidEvent;
    }
  }

  struct Sample {
    sim::Time t;
    double value;
  };
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] double max_value() const;

 private:
  void tick() {
    samples_.push_back({sim_.now(), probe_()});
    timer_ = sim_.schedule_in(interval_, [this]() { tick(); });
  }

  sim::Simulator& sim_;
  sim::Time interval_;
  Probe probe_;
  sim::EventId timer_ = sim::kInvalidEvent;
  std::vector<Sample> samples_;
};

}  // namespace tcn::stats
