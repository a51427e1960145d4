// Unified metrics layer: a per-run registry of named counters, gauges and
// log-bucketed histograms that every layer of the simulator publishes into.
//
// Design rules (the same discipline as net::PortObserver):
//
//   - zero-cost when disabled: instruments resolve their handles ONCE, at
//     construction time, from the thread-local MetricsRegistry::Scope; when
//     no scope is installed the handles stay null and every publish site is
//     a single predictable branch on a null pointer
//   - one count per event: an event the instrumented object already counts
//     (a port queue's QueueCounters, the traffic engine's totals) is not
//     counted again; the registry reads that count at snapshot time
//   - per-run isolation: one registry per simulation run, installed
//     thread-locally exactly like net::PacketPool::Scope, so concurrent
//     sweep jobs never contend or mix their metrics
//   - determinism: snapshots iterate name-sorted, all stored values are
//     integers (or doubles rendered shortest-round-trip by the exporter),
//     so the serialized form is byte-identical for any --jobs value
//
// The histogram is HDR-style log-linear: each power-of-two octave is split
// into kSubBuckets linear sub-buckets, giving a bounded relative error of
// 1/kSubBuckets (~3%) at any magnitude while costing one shift + one
// subtract per record. Values below kSubBuckets are exact.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcn::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins sample with running min/max (peak tracking).
class Gauge {
 public:
  void set(double v) noexcept {
    last_ = v;
    if (sets_ == 0 || v < min_) min_ = v;
    if (sets_ == 0 || v > max_) max_ = v;
    ++sets_;
  }
  [[nodiscard]] double last() const noexcept { return last_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t sets() const noexcept { return sets_; }

 private:
  double last_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t sets_ = 0;
};

/// Log-linear (HDR-style) histogram over non-negative 64-bit values.
/// Relative bucket error is bounded by 1/kSubBuckets; exact count, sum,
/// min and max are tracked alongside the buckets, so mean() is exact and
/// only percentile() carries the bucket quantization.
class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBucketBits;  // 32

  /// Flat bucket index of `v`: exact below kSubBuckets, then kSubBuckets
  /// linear sub-buckets per power-of-two octave.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - static_cast<int>(kSubBucketBits);
    const std::uint64_t sub = v >> shift;  // in [kSubBuckets, 2*kSubBuckets)
    return static_cast<std::size_t>(shift + 1) * kSubBuckets +
           static_cast<std::size_t>(sub - kSubBuckets);
  }

  /// Smallest value mapping to bucket `idx` (inverse of bucket_index).
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t idx) noexcept {
    if (idx < kSubBuckets) return idx;
    const std::size_t shift = idx / kSubBuckets - 1;
    const std::uint64_t sub = kSubBuckets + idx % kSubBuckets;
    return sub << shift;
  }

  /// One past the largest value mapping to bucket `idx`.
  [[nodiscard]] static std::uint64_t bucket_ceil(std::size_t idx) noexcept {
    return bucket_floor(idx + 1);
  }

  /// Record one sample. Negative inputs (never produced by a correct
  /// simulation) clamp to 0 instead of indexing garbage.
  void record(std::int64_t signed_v) noexcept {
    const std::uint64_t v =
        signed_v < 0 ? 0 : static_cast<std::uint64_t>(signed_v);
    const std::size_t idx = bucket_index(v);
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// p in [0, 100]. Returns the midpoint of the bucket holding the p-th
  /// sample, clamped to the exact observed [min, max] -- so percentile(0)
  /// == min and percentile(100) == max despite bucket quantization.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept {
    if (count_ == 0) return 0;
    const double rank_f = p / 100.0 * static_cast<double>(count_);
    std::uint64_t rank = static_cast<std::uint64_t>(rank_f);
    if (rank >= count_) rank = count_ - 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) {
        const std::uint64_t mid = bucket_floor(i) + (bucket_ceil(i) - bucket_floor(i)) / 2;
        return std::clamp(mid, min_, max_);
      }
    }
    return max_;
  }

  /// q in [0, 1]. Like percentile() but interpolates linearly *within* the
  /// bucket holding the fractional rank q*count instead of returning the
  /// bucket midpoint -- buckets are log-spaced, so this is the standard
  /// HDR log-linear quantile estimate, with sub-bucket resolution on
  /// smooth distributions. Clamped to the exact observed [min, max];
  /// quantile(0) == min and quantile(1) == max.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q <= 0.0) return static_cast<double>(min_);
    if (q >= 1.0) return static_cast<double>(max_);
    const double rank = q * static_cast<double>(count_);  // in (0, count)
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c == 0.0) continue;
      if (seen + c >= rank) {
        const double lo = static_cast<double>(bucket_floor(i));
        const double hi = static_cast<double>(bucket_ceil(i));
        const double v = lo + (rank - seen) / c * (hi - lo);
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      seen += c;
    }
    return static_cast<double>(max_);
  }

  /// (bucket_floor, count) for every non-empty bucket, ascending.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets()
      const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) out.emplace_back(bucket_floor(i), counts_[i]);
    }
    return out;
  }

 private:
  std::vector<std::uint64_t> counts_;  // grown lazily to the highest bucket
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Plain-data copy of a registry at a point in time: what FctReport carries
/// and the exporters serialize. Deterministic: every section is name-sorted.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t sets = 0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Name -> instrument map for one simulation run. Instruments are owned by
/// the registry (map nodes give stable addresses) and live until the
/// registry dies, so handles resolved at construction time stay valid for
/// the whole run.
class MetricsRegistry {
 public:
  using Read = std::function<std::uint64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Throws std::logic_error when `name` is read (read_counter).
  Counter& counter(std::string_view name) {
    CounterSlot& slot = find(counters_, name);
    if (slot.read) throw_counted_and_read(name);
    return slot.counter;
  }

  /// A counter that reads, at each snapshot, a count the instrumented
  /// object keeps: the sum of every `read` registered under `name`. A read
  /// must stay valid until the registry's last snapshot, the contract a
  /// TimeSeries channel has with its queue. Throws std::logic_error when
  /// `name` is counted (counter()).
  void read_counter(std::string_view name, Read read) {
    auto [it, fresh] = counters_.try_emplace(std::string(name));
    Read& sum = it->second.read;
    if (!fresh && !sum) throw_counted_and_read(name);
    if (sum) {
      sum = [a = std::move(sum), b = std::move(read)] { return a() + b(); };
    } else {
      sum = std::move(read);
    }
  }

  Gauge& gauge(std::string_view name) { return find(gauges_, name); }
  LogHistogram& histogram(std::string_view name) {
    return find(histograms_, name);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    s.counters.reserve(counters_.size());
    for (const auto& [name, slot] : counters_) {
      s.counters.push_back(
          {name, slot.read ? slot.read() : slot.counter.value()});
    }
    s.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      s.gauges.push_back({name, g.last(), g.min(), g.max(), g.sets()});
    }
    s.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      s.histograms.push_back({name, h.count(), h.sum(), h.min(), h.max(),
                              h.percentile(50.0), h.percentile(99.0),
                              h.buckets()});
    }
    return s;
  }

  /// RAII scope installing this registry as the thread's publishing target,
  /// nesting exactly like net::PacketPool::Scope (inner shadows, destructor
  /// restores). Install it BEFORE building the topology so ports, markers
  /// and transports resolve their handles.
  class Scope {
   public:
    explicit Scope(MetricsRegistry& reg) noexcept : prev_(tls_slot()) {
      tls_slot() = &reg;
    }
    ~Scope() { tls_slot() = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MetricsRegistry* prev_;
  };

  /// Registry installed on this thread, or nullptr when metrics are off --
  /// the one branch instruments pay at construction time.
  [[nodiscard]] static MetricsRegistry* current() noexcept {
    return tls_slot();
  }

 private:
  /// Counted (counter) or read (read), never both.
  struct CounterSlot {
    Counter counter;
    Read read;
  };

  template <typename T>
  T& find(std::map<std::string, T, std::less<>>& m, std::string_view name) {
    auto it = m.find(name);
    if (it == m.end()) it = m.emplace(std::string(name), T{}).first;
    return it->second;
  }

  [[noreturn]] static void throw_counted_and_read(std::string_view name) {
    throw std::logic_error("MetricsRegistry: '" + std::string(name) +
                           "' is both counted and read");
  }

  static MetricsRegistry*& tls_slot() noexcept {
    static thread_local MetricsRegistry* current = nullptr;
    return current;
  }

  std::map<std::string, CounterSlot, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

}  // namespace tcn::obs
