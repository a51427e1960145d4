#include "obs/timeseries.hpp"

namespace tcn::obs {
namespace {

[[nodiscard]] double clamp01(double v) noexcept {
  return std::clamp(v, 0.0, 1.0);
}

}  // namespace

std::string_view regime_name(Regime r) noexcept {
  switch (r) {
    case Regime::kStable:
      return "stable";
    case Regime::kOscillating:
      return "oscillating";
    case Regime::kSaturated:
      return "saturated";
  }
  return "stable";
}

std::optional<Regime> regime_from_name(std::string_view s) noexcept {
  if (s == "stable") return Regime::kStable;
  if (s == "oscillating") return Regime::kOscillating;
  if (s == "saturated") return Regime::kSaturated;
  return std::nullopt;
}

void StabilityAnalyzer::observe(const SeriesPoint& p) noexcept {
  // Depth central moments, Pebay's single-pass update (numerically stable
  // generalization of Welford to M3/M4).
  const double x = static_cast<double>(p.depth_bytes);
  const double n1 = static_cast<double>(depth_n_);
  ++depth_n_;
  const double n = static_cast<double>(depth_n_);
  const double delta = x - depth_mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  depth_mean_ += delta_n;
  depth_m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) +
               6.0 * delta_n2 * depth_m2_ - 4.0 * delta_n * depth_m3_;
  depth_m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * depth_m2_;
  depth_m2_ += term1;

  if (depth_n_ > 1) {
    lag_sum_ += lag_prev_ * x;
    ++lag_n_;
  }
  lag_prev_ = x;

  if (p.deq_packets > 0) {
    const double s = static_cast<double>(p.sojourn_sum_ns) /
                     static_cast<double>(p.deq_packets);
    ++soj_n_;
    const double d = s - soj_mean_;
    soj_mean_ += d / static_cast<double>(soj_n_);
    soj_m2_ += d * (s - soj_mean_);
  }

  const double m = static_cast<double>(p.marks);
  ++mark_n_;
  const double dm = m - mark_mean_;
  mark_mean_ += dm / static_cast<double>(mark_n_);
  mark_m2_ += dm * (m - mark_mean_);

  total_tx_bytes_ += p.tx_bytes;
}

StabilityResult StabilityAnalyzer::result(
    std::uint64_t cap_bytes) const noexcept {
  StabilityResult r;
  r.samples = depth_n_;
  if (depth_n_ == 0) return r;

  const double n = static_cast<double>(depth_n_);
  const double var = depth_m2_ / n;  // population variance
  r.depth_mean_bytes = depth_mean_;
  if (var > 0.0) {
    const double sd = std::sqrt(var);
    r.depth_cv = depth_mean_ > 0.0 ? sd / depth_mean_ : 0.0;
    // Sarle's bimodality coefficient b = (skew^2 + 1) / kurtosis, with the
    // population estimators g1 = sqrt(n) M3 / M2^1.5 and kurt = n M4 / M2^2
    // (kurt >= 1 whenever M2 > 0, so the division is safe). Uniform gives
    // 5/9; a two-point 50/50 oscillation gives 1.
    const double g1 = std::sqrt(n) * depth_m3_ / std::pow(depth_m2_, 1.5);
    const double kurt = n * depth_m4_ / (depth_m2_ * depth_m2_);
    r.bimodality = (g1 * g1 + 1.0) / kurt;
    if (lag_n_ > 0) {
      const double mean_prod = lag_sum_ / static_cast<double>(lag_n_);
      r.lag1_autocorr = std::clamp(
          (mean_prod - depth_mean_ * depth_mean_) / var, -1.0, 1.0);
    }
    if (depth_n_ >= kMinSamples) {
      // Bimodality alone flags any two-level series, including one that
      // barely moves; damping by the depth CV keeps the score proportional
      // to how hard the queue actually swings.
      const double excess =
          clamp01((r.bimodality - kUniformBimodality) /
                  (1.0 - kUniformBimodality));
      r.oscillation_score = excess * clamp01(r.depth_cv);
    }
  }
  if (soj_n_ > 0 && soj_mean_ > 0.0) {
    r.sojourn_cv =
        std::sqrt(soj_m2_ / static_cast<double>(soj_n_)) / soj_mean_;
  }
  if (mark_mean_ > 0.0) {
    r.mark_burstiness = (mark_m2_ / static_cast<double>(mark_n_)) / mark_mean_;
  }

  double occupancy = 0.0;
  if (cap_bytes > 0 && cap_bytes != UINT64_MAX) {
    occupancy = depth_mean_ / static_cast<double>(cap_bytes);
  }
  if (depth_n_ >= kMinSamples && occupancy >= kSaturationOccupancy) {
    r.regime = Regime::kSaturated;
  } else if (r.oscillation_score >= kOscillationThreshold) {
    r.regime = Regime::kOscillating;
  } else {
    r.regime = Regime::kStable;
  }
  return r;
}

std::vector<SeriesPoint> TimeSeries::Channel::points() const {
  std::vector<SeriesPoint> out;
  if (!wrapped_) {
    out.assign(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out.reserve(ring_.size());
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void TimeSeries::Channel::sample(sim::Time now) {
  const net::QueueCounters& c = queue_->counters();
  SeriesPoint pt;
  pt.t = now;
  pt.depth_bytes = queue_->bytes();
  pt.depth_packets = queue_->size();
  pt.deq_packets = c.tx_packets - last_.tx_packets;
  pt.sojourn_sum_ns = c.sojourn_ns - last_.sojourn_ns;
  pt.marks = c.marks - last_.marks;
  pt.tx_bytes = c.tx_bytes - last_.tx_bytes;
  last_ = c;

  analyzer_.observe(pt);
  if (max_samples_ == 0) return;
  if (ring_.size() < max_samples_) {
    ring_.push_back(pt);
    next_ = ring_.size() % max_samples_;
    wrapped_ = next_ == 0 && ring_.size() == max_samples_;
  } else {
    ring_[next_] = pt;
    next_ = (next_ + 1) % max_samples_;
    wrapped_ = true;
  }
}

TimeSeries::Channel* TimeSeries::add_channel(std::string name,
                                             const net::PacketQueue& queue,
                                             std::uint64_t cap_bytes) {
  channels_.push_back(std::make_unique<Channel>(std::move(name), queue,
                                                cap_bytes, cfg_.max_samples));
  return channels_.back().get();
}

void TimeSeries::start(sim::Simulator& sim) {
  if (armed_ || !cfg_.enabled()) return;
  armed_ = true;
  sim.schedule_in(cfg_.interval, [this, &sim] { tick(sim); });
}

void TimeSeries::tick(sim::Simulator& sim) {
  ++ticks_;
  const sim::Time now = sim.now();
  for (const std::unique_ptr<Channel>& ch : channels_) ch->sample(now);
  // The tick's own pop already happened: an empty queue here means the run
  // is over bar the sampler, and rescheduling would keep run(kTimeMax)
  // spinning forever. Stop; start() may re-arm.
  if (sim.pending() == 0) {
    armed_ = false;
    return;
  }
  sim.schedule_in(cfg_.interval, [this, &sim] { tick(sim); });
}

std::vector<const TimeSeries::Channel*> TimeSeries::sorted_channels() const {
  std::vector<const Channel*> out;
  out.reserve(channels_.size());
  for (const std::unique_ptr<Channel>& ch : channels_) out.push_back(ch.get());
  std::sort(out.begin(), out.end(), [](const Channel* a, const Channel* b) {
    return a->name() < b->name();
  });
  return out;
}

const TimeSeries::Channel* TimeSeries::dominant_channel() const {
  const Channel* best = nullptr;
  for (const std::unique_ptr<Channel>& ch : channels_) {
    if (best == nullptr ||
        ch->analyzer().total_tx_bytes() > best->analyzer().total_tx_bytes() ||
        (ch->analyzer().total_tx_bytes() == best->analyzer().total_tx_bytes() &&
         ch->name() < best->name())) {
      best = ch.get();
    }
  }
  return best;
}

}  // namespace tcn::obs
