// Simplified RED/ECN marking as deployed in production (Sec. 2.1):
// instantaneous occupancy compared against a single static threshold K
// (K_min = K_max = K).
//
// Covers four of the paper's baselines through configuration:
//   - per-queue RED with the standard threshold (current practice, Sec. 3.2.1)
//   - per-port RED (Sec. 3.2.2, violates scheduling policies)
//   - dequeue-side RED marking (Wu et al., discussed in Sec. 4.3)
//   - "oracle" ideal RED: per-queue thresholds computed offline from known
//     queue capacities (Eq. 2), used in the static-flow experiment (Fig. 5b)
#pragma once

#include <cstdint>
#include <vector>

#include "aqm/marker_metrics.hpp"
#include "net/marker.hpp"

namespace tcn::aqm {

enum class RedScope { kPerQueue, kPerPort };
enum class RedSide { kEnqueue, kDequeue };

class RedEcnMarker final : public net::Marker {
 public:
  /// Uniform threshold (bytes) for every queue.
  RedEcnMarker(std::uint64_t threshold_bytes, RedScope scope,
               RedSide side = RedSide::kEnqueue);

  /// Per-queue thresholds (bytes) -- the oracle configuration. Scope is
  /// per-queue by definition.
  explicit RedEcnMarker(std::vector<std::uint64_t> per_queue_thresholds,
                        RedSide side = RedSide::kEnqueue);

  bool on_enqueue(const net::MarkContext& ctx, const net::Packet& p) override;
  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override;

  [[nodiscard]] std::string_view name() const override;

 private:
  [[nodiscard]] bool over_threshold(const net::MarkContext& ctx) const;

  std::vector<std::uint64_t> thresholds_;  // size 1 = uniform
  RedScope scope_;
  RedSide side_;
  MarkerMetrics metrics_;
};

}  // namespace tcn::aqm
